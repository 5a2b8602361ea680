package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// extractBlockFrom returns the output from an experiment's banner onward.
func extractBlockFrom(t *testing.T, s, banner string) string {
	t.Helper()
	i := strings.Index(s, banner)
	if i < 0 {
		t.Fatalf("banner %q missing from run output", banner)
	}
	return s[i:]
}

// TestE19E20WorkerInvariance: the two new experiment blocks must be
// byte-identical at -workers 1, 4 and 8 — E19 because its loadbalance and
// loadtest runs are already single-stream, E20 because every frontier grid
// point draws from its own derived stream regardless of which worker
// simulates it.
func TestE19E20WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full experiment passes")
	}
	extract := func(workers int) (string, string) {
		s := runAll(t, tinyOpts(), workers)
		e19 := extractBlockFrom(t, s, "──── E19")
		return e19[:strings.Index(e19, "──── E20")], extractBlockFrom(t, s, "──── E20")
	}
	one19, one20 := extract(1)
	for _, workers := range []int{4, 8} {
		got19, got20 := extract(workers)
		if got19 != one19 {
			t.Fatalf("E19 output differs between -workers 1 and -workers %d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				workers, one19, workers, got19)
		}
		if got20 != one20 {
			t.Fatalf("E20 output differs between -workers 1 and -workers %d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				workers, one20, workers, got20)
		}
	}
	for _, want := range []string{"type mix", "gpu-scheduler", "serverless-affinity", "serving path"} {
		if !strings.Contains(one19, want) {
			t.Fatalf("E19 block missing its %q section:\n%s", want, one19)
		}
	}
	if !strings.Contains(one20, "advantaged points:") {
		t.Fatalf("E20 block missing the frontier summary:\n%s", one20)
	}
}

// TestFrontierCSVWorkerInvariance pins the committed-artifact contract:
// WriteFrontierCSV emits identical bytes at any worker-pool width.
func TestFrontierCSVWorkerInvariance(t *testing.T) {
	o := Options{Seed: 42, Scale: 0.02}
	write := func(workers int) string {
		defer parallel.SetDefaultWorkers(0)
		parallel.SetDefaultWorkers(workers)
		var out bytes.Buffer
		if err := WriteFrontierCSV(&out, o); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out.String()
	}
	one := write(1)
	if !strings.HasPrefix(one, "deadline_ns,distance_m,visibility,") {
		t.Fatalf("artifact missing its header:\n%.200s", one)
	}
	rows := len(frontierDeadlines()) * len(frontierDistancesM()) * len(frontierVisibilities())
	if got := strings.Count(one, "\n"); got != rows+1 {
		t.Fatalf("artifact has %d lines, want %d grid rows + header", got, rows+1)
	}
	for _, workers := range []int{4, 8} {
		if got := write(workers); got != one {
			t.Fatalf("frontier CSV differs between 1 and %d workers", workers)
		}
	}
}

// TestFrontierRowsPhysicalShape sanity-checks the simulation against the
// physics it encodes: no advantage below the critical visibility once
// decoherence is accounted for, no quantum play without a pool, and the
// classical architecture switching at the RTT boundary.
func TestFrontierRowsPhysicalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full frontier grid at artifact scale")
	}
	// Artifact scale: the binomial noise must sit below the advantage
	// threshold for the sub-critical assertion to be meaningful.
	rows := frontierRows(Options{Seed: 42, Scale: 1})
	for _, r := range rows {
		if r.ClassicalRTT <= r.Deadline && r.ClassicalArch != "coordinated" {
			t.Fatalf("RTT %v fits deadline %v but best classical is %q", r.ClassicalRTT, r.Deadline, r.ClassicalArch)
		}
		if r.ClassicalRTT > r.Deadline && r.WinClassical != 0.75 {
			t.Fatalf("RTT %v misses deadline %v but classical win %v isn't the local value", r.ClassicalRTT, r.Deadline, r.WinClassical)
		}
		if r.Visibility <= 0.65 && r.Advantaged {
			t.Fatalf("advantage claimed at sub-critical source visibility %.2f (deadline %v, %vm)", r.Visibility, r.Deadline, r.DistanceM)
		}
		if r.QuantumFraction == 0 && r.WinQuantum > 0.80 {
			t.Fatalf("win rate %.3f without any quantum rounds (deadline %v, %vm)", r.WinQuantum, r.Deadline, r.DistanceM)
		}
	}
}
