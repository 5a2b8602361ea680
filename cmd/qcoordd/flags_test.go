package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestQcoorddRejectsBadFlags: a negative duration flag exits 2 before the
// daemon listens, instead of being reread (the admission defaults used to
// replace a negative service seed or backlog cap, and a negative budget
// meant none). Each run is killed at a deadline, so a flag that let the
// daemon start serving fails the test instead of hanging it.
func TestQcoorddRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "qcoordd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-drain-timeout", "-1s"},
		{"-admission", "-admission-service", "-50us"},
		{"-admission", "-admission-max-backlog", "-1ns"},
		{"-admission", "-admission-default-budget", "-10ms"},
		{"-admission-service", "-1ms"}, // refused with admission off too
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-metrics-out", ""}, args...)...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("%v: still running after 10s (killed)\n%s", args, out)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err %v, want exit 2\n%s", args, err, out)
		}
	}
}
