package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadtest"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// TestQcoorddDrainUnderOverload composes the two resilience mechanisms this
// daemon has: admission control (this PR) and graceful drain. The daemon
// runs with -admission and a deliberately pessimistic initial service
// estimate — one request's modeled cost fills the whole backlog cap — the
// generator offers far more than that modeled capacity, and SIGTERM lands
// mid-run. Required outcome:
//
//   - the admission gate visibly shed work (Shed > 0): overload handling
//     was active, not bypassed, when drain began;
//   - zero hard errors: every request resolved as a decision, a shed 429,
//     a drain 503 or a connection-level failure — shedding and drain never
//     corrupt an answer;
//   - the daemon exits 0 with a valid metrics artifact: drain's in-flight
//     accounting is not confused by requests parked in or rejected by the
//     admission pipeline.
func TestQcoorddDrainUnderOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon overload test in -short mode")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "qcoordd")
	metricsOut := filepath.Join(dir, "qcoordd_metrics.json")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-drain-timeout", "15s",
		"-metrics-out", metricsOut,
		"-admission",
		// A 20ms seed against a 20ms cap models 50 decisions/sec for the server:
		// every accepted request fills the modeled queue and the next ones
		// shed until it drains. The EWMA moves 10% per accepted sample
		// toward the real (much faster) service time, so shedding is
		// concentrated in the opening few hundred milliseconds — exactly the
		// window where an unprotected server would build its queue — and it
		// follows from the model alone. (A 2ms seed used to be enough only
		// because a race-built daemon spent milliseconds per request on
		// supply catch-up; overload must not depend on the server being
		// slow.)
		"-admission-service", "20ms",
		"-admission-max-backlog", "20ms",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exitDone := make(chan struct{})
	go func() { exitErr = cmd.Wait(); close(exitDone) }()
	defer func() {
		select {
		case <-exitDone:
		default:
			_ = cmd.Process.Kill()
			<-exitDone
		}
	}()

	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "qcoordd: listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address (scan err %v)", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	// 250 requests/sec per session against 50/sec of modeled capacity,
	// decide-only so every request faces the admission gate.
	cfg := loadtest.Config{
		Seed:      2027,
		Duration:  2 * time.Second,
		TargetRPS: 1000,
		Sessions:  4,
		Scenarios: []loadtest.Scenario{{Name: "decide", Weight: 1, Batch: 1}},
	}
	type runOut struct {
		res *loadtest.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := loadtest.RunWall(cfg, loadtest.WallOptions{Client: serve.NewClient("http://" + addr)})
		done <- runOut{res, err}
	}()

	time.Sleep(600 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("load run: %v", out.err)
	}
	res := out.res

	if res.Errors != 0 {
		t.Fatalf("overload+drain produced %d hard errors: %+v", res.Errors, res)
	}
	if res.Decisions == 0 {
		t.Fatal("no decisions completed — nothing was served before drain")
	}
	if res.Shed == 0 {
		t.Fatal("admission gate never shed — the overload path was not exercised")
	}
	if res.Retryable+res.Transport == 0 {
		t.Fatal("no requests were drain-rejected — SIGTERM landed too late to exercise drain under load")
	}

	select {
	case <-exitDone:
		if exitErr != nil {
			t.Fatalf("daemon exit: %v (want exit 0 = clean drain under overload)", exitErr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit within 60s of SIGTERM")
	}

	raw, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("final metrics artifact missing: %v", err)
	}
	var art metrics.Artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("metrics artifact is not valid JSON: %v", err)
	}
	var served float64
	found := false
	for _, kv := range art.Metrics {
		if kv.Key == "serve_decisions_total" {
			served, found = kv.Value, true
		}
	}
	if !found {
		t.Fatal("artifact missing serve_decisions_total")
	}
	if served < float64(res.Decisions) {
		t.Fatalf("artifact counts %v decisions, client saw %d succeed", served, res.Decisions)
	}
	t.Logf("drain under overload: %d requests, %d decisions, %d shed, %d retryable, %d transport, clean exit",
		res.Requests, res.Decisions, res.Shed, res.Retryable, res.Transport)
}
