package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// footer is the completion line a clean run ends with; benchmark/suite
// matches the same expression to tell a finished sweep from a stopped one.
var footer = regexp.MustCompile(`(?m)^\nall experiments complete in [^\n]*\n\z`)

// TestReproExitContract builds the binary and checks how a run ends: a
// -timeout stops it with exit 1 and still writes the metrics artifact, SIGINT
// stops it with exit 130, and a clean run prints the committed output and
// the completion footer.
func TestReproExitContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the repro binary")
	}
	bin := filepath.Join(t.TempDir(), "repro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("timeout", func(t *testing.T) {
		artifact := filepath.Join(t.TempDir(), "metrics.json")
		out, err := exec.Command(bin, "-timeout", "1ms", "-metrics", artifact).Output()
		if code := exitCode(t, err); code != 1 {
			t.Fatalf("exit %d, want 1\n%s", code, out)
		}
		if !bytes.Contains(out, []byte("context deadline exceeded")) {
			t.Fatalf("stdout does not say why the run stopped:\n%s", out)
		}
		raw, err := os.ReadFile(artifact)
		if err != nil {
			t.Fatalf("artifact not written: %v", err)
		}
		var art metrics.Artifact
		if err := json.Unmarshal(raw, &art); err != nil {
			t.Fatalf("artifact is not valid JSON: %v", err)
		}
		if art.Tool != "repro" || art.WallMS <= 0 || len(art.Experiments) >= 19 {
			t.Fatalf("artifact tool %q, wall %v ms, %d experiments: want a partial repro run",
				art.Tool, art.WallMS, len(art.Experiments))
		}
	})

	t.Run("interrupt", func(t *testing.T) {
		cmd := exec.Command(bin)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The first banner means the run is under way and the signal
		// handler installed; the rest of the sweep takes about a second.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() && !strings.HasPrefix(sc.Text(), "──── E1") {
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		var rest strings.Builder
		done := make(chan error, 1)
		go func() {
			for sc.Scan() {
				rest.WriteString(sc.Text() + "\n")
			}
			done <- cmd.Wait()
		}()
		select {
		case err := <-done:
			if code := exitCode(t, err); code != 130 {
				t.Fatalf("exit %d, want 130\n%s", code, rest.String())
			}
		case <-time.After(60 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Fatal("repro did not exit within 60s of SIGINT")
		}
		if !strings.Contains(rest.String(), "run interrupted after") {
			t.Fatalf("stdout does not report the interruption:\n%s", rest.String())
		}
	})

	t.Run("clean", func(t *testing.T) {
		out, err := exec.Command(bin).Output()
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
		if !footer.Match(out) {
			t.Fatalf("output does not end with the completion footer:\n%s", out[max(0, len(out)-200):])
		}
		golden, err := os.ReadFile("../../repro_output.txt")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(footer.ReplaceAll(out, nil), footer.ReplaceAll(golden, nil)) {
			t.Fatal("seed-42 output differs from repro_output.txt")
		}
	})
}

// exitCode is the process status behind a Run/Output/Wait error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("repro did not run: %v", err)
	}
	return ee.ExitCode()
}
