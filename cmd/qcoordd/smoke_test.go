package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// TestQcoorddSmoke is the end-to-end serving exercise: build the daemon
// with the race detector, start it as a real process, register a fleet of
// sessions each scripted with a supply-fault window, drive concurrent
// decisions until every session has ridden the degradation ladder down and
// back up, then SIGTERM and require a clean drain — exit 0 and a final
// metrics artifact.
//
// Default scale keeps tier-1 fast; `make qcoordd-smoke` (and CI) runs the
// full 64-session / 10k-decision version via QCOORDD_SMOKE_* env vars.
func TestQcoorddSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon smoke in -short mode")
	}
	sessions := envInt("QCOORDD_SMOKE_SESSIONS", 16)
	minDecisions := envInt("QCOORDD_SMOKE_DECISIONS", 2000)
	workers := envInt("QCOORDD_SMOKE_WORKERS", 8)

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
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// exitDone is closed (reusable) once the daemon exits; exitErr is valid
	// only after it closes.
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

	// The daemon prints its bound address first.
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
	go func() { // keep draining stdout so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	client := serve.NewClient("http://" + addr)
	ctx := context.Background()

	// Register the fleet. Every session scripts the same deterministic
	// source-outage window (sim time 200–1400 ms) via internal/faults.
	ids := make([]string, sessions)
	for i := range ids {
		id := fmt.Sprintf("smoke-%03d", i)
		ids[i] = id
		_, err := client.CreateSession(ctx, serve.SessionRequest{
			ID:           id,
			Endpoints:    []string{"lb-a", "lb-b"},
			Seed:         uint64(i + 1),
			PairRate:     1e5,
			PoolCap:      8,
			HealthWindow: 8,
			Faults: []serve.FaultWindow{
				{Kind: "source-outage", StartMS: 200, EndMS: 1400},
			},
		})
		if err != nil {
			t.Fatalf("create session %s: %v", id, err)
		}
	}

	// Drive decisions concurrently until the minimum count is reached AND
	// every session has both degraded to classical during the outage and
	// climbed back to supply-backed play after it. Recovery means leaving
	// the classical rung: at realistic pair rates the rolling delivered
	// visibility sits near the reoptimize threshold (freshest-pair age is
	// ~Exp(1/rate) against a 200 µs T2), so a recovered session legitimately
	// settles at either "quantum" or "reoptimized". Every decide must
	// succeed.
	var total, failures atomic.Int64
	degraded := make([]atomic.Bool, sessions)
	recovered := make([]atomic.Bool, sessions)
	deadline := time.Now().Add(4 * time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				s := (w + i*workers) % sessions
				if time.Now().After(deadline) {
					return
				}
				if total.Load() >= int64(minDecisions) && allDone(degraded, recovered) {
					return
				}
				d, err := client.Decide(ctx, ids[s], i%2, (i/2)%2)
				if err != nil {
					failures.Add(1)
					t.Errorf("decide %s: %v", ids[s], err)
					return
				}
				total.Add(1)
				if d.Level == "classical" {
					degraded[s].Store(true)
					recovered[s].Store(false)
				} else if degraded[s].Load() {
					recovered[s].Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d decisions failed", failures.Load())
	}
	if total.Load() < int64(minDecisions) {
		t.Fatalf("only %d decisions before deadline (want >= %d)", total.Load(), minDecisions)
	}
	if !allDone(degraded, recovered) {
		for i := range degraded {
			if !degraded[i].Load() || !recovered[i].Load() {
				t.Errorf("session %s: degraded=%v recovered=%v", ids[i], degraded[i].Load(), recovered[i].Load())
			}
		}
		t.Fatal("not every session completed the degrade/recover arc")
	}

	// Cross-check the arc against the health endpoint: the ladder must have
	// moved at least twice (down and back up) per session.
	for _, id := range ids {
		info, err := client.Session(ctx, id)
		if err != nil {
			t.Fatalf("session %s info: %v", id, err)
		}
		if info.Transitions < 2 {
			t.Errorf("session %s transitions = %d, want >= 2", id, info.Transitions)
		}
		if info.Level == "classical" || info.Level == "random" {
			t.Errorf("session %s final level = %q, want supply-backed play", id, info.Level)
		}
	}

	// Graceful drain: one SIGTERM, clean exit, artifact flushed.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exitDone:
		if exitErr != nil {
			t.Fatalf("daemon exit: %v (want exit 0)", exitErr)
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
	found := false
	for _, kv := range art.Metrics {
		if kv.Key == "serve_decisions_total" {
			found = true
			if kv.Value < float64(total.Load()) {
				t.Fatalf("artifact serve_decisions_total = %v, drove %d", kv.Value, total.Load())
			}
		}
	}
	if !found {
		t.Fatal("artifact missing serve_decisions_total")
	}
	t.Logf("smoke: %d sessions, %d decisions, clean drain, artifact %d bytes", sessions, total.Load(), len(raw))
}

// allDone reports whether every session has degraded and then recovered.
func allDone(degraded, recovered []atomic.Bool) bool {
	for i := range degraded {
		if !degraded[i].Load() || !recovered[i].Load() {
			return false
		}
	}
	return true
}

// envInt reads an integer env override.
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}
