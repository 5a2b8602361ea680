package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestQcoorddRejectsBadShards: a -shards value outside [1, MaxShards] exits 2
// before the daemon listens. A value past 2⁶² once spun forever in the
// power-of-two rounding with the signal handler already installed, so the
// process is killed at the deadline and the test fails instead of hanging.
func TestQcoorddRejectsBadShards(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "qcoordd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, shards := range []string{"4611686018427387905", "0"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-metrics-out", "", "-shards", shards).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("-shards %s: still running after 10s (killed)\n%s", shards, out)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-shards %s: err %v, want exit 2\n%s", shards, err, out)
		}
	}
}
