package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/loadbalance"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// tinyOpts keeps every experiment to a few milliseconds so the invariance
// test can afford two full E1–E20 passes.
func tinyOpts() Options { return Options{Seed: 42, Scale: 0.02} }

// runAll runs every experiment at o and returns the streamed output.
func runAll(t *testing.T, o Options, workers int) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := RunAll(context.Background(), &out, All(), o, workers); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out.String()
}

func TestRunAllWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment passes")
	}
	serial, fanned := runAll(t, tinyOpts(), 1), runAll(t, tinyOpts(), 8)
	if serial != fanned {
		t.Fatalf("output differs between -workers 1 and -workers 8:\n--- serial ---\n%s\n--- workers=8 ---\n%s",
			serial, fanned)
	}
}

func TestRunAllEmitsEveryBannerInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pass")
	}
	s := runAll(t, tinyOpts(), 4)
	pos := -1
	for _, e := range All() {
		banner := "──── " + e.Title + " ────"
		i := strings.Index(s, banner)
		if i < 0 {
			t.Fatalf("banner for %s missing from output", e.ID)
		}
		if i < pos {
			t.Fatalf("banner for %s out of order", e.ID)
		}
		pos = i
	}
}

func TestOptionsScaleFloorsAtOne(t *testing.T) {
	o := Options{Scale: 0.001}
	if got := o.n(100); got != 1 {
		t.Fatalf("n(100) at scale 0.001 = %d, want 1", got)
	}
	if got := (Options{}).n(100); got != 100 {
		t.Fatalf("zero scale should behave as 1, got %d", got)
	}
	if got := (Options{Scale: 5}.n(100)); got != 500 {
		t.Fatalf("n(100) at scale 5 = %d, want 500", got)
	}
}

func TestAllHasNineteenUniqueIDs(t *testing.T) {
	exps := All()
	if len(exps) != 19 {
		t.Fatalf("len(All()) = %d, want 19", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("%s has nil Run", e.ID)
		}
		if !strings.HasPrefix(e.Title, e.ID) {
			t.Fatalf("%s title %q does not lead with its ID", e.ID, e.Title)
		}
	}
}

// TestRunAllReturnsTimings: the observability contract of RunAll — one
// wall-time entry per experiment, in E1..E20 order, all positive, and the
// per-experiment timers land in the default metrics registry.
func TestRunAllReturnsTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pass")
	}
	timings, err := RunAll(context.Background(), &bytes.Buffer{}, All(), tinyOpts(), 4)
	if err != nil {
		t.Fatal(err)
	}
	exps := All()
	if len(timings) != len(exps) {
		t.Fatalf("%d timings for %d experiments", len(timings), len(exps))
	}
	for i, tm := range timings {
		if tm.ID != exps[i].ID {
			t.Fatalf("timing %d is %s, want %s", i, tm.ID, exps[i].ID)
		}
		if tm.Wall <= 0 {
			t.Fatalf("%s wall time %v", tm.ID, tm.Wall)
		}
	}
}

// TestE17WorkerInvariance is the chaos-determinism acceptance test: the E17
// block extracted from full RunAll passes at 1, 4 and 8 workers must be
// byte-identical — fault injection adds no worker-count dependence.
func TestE17WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full experiment passes")
	}
	extract := func(workers int) string {
		s := runAll(t, tinyOpts(), workers)
		i := strings.Index(s, "──── E17")
		if i < 0 {
			t.Fatalf("E17 banner missing at workers=%d", workers)
		}
		return s[i:]
	}
	one := extract(1)
	for _, workers := range []int{4, 8} {
		if got := extract(workers); got != one {
			t.Fatalf("E17 output differs between -workers 1 and -workers %d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				workers, one, workers, got)
		}
	}
	// The classical-floor guarantee itself is asserted at realistic phase
	// lengths by core.TestRunChaosHoldsClassicalFloor; the 30-round phases
	// used here are too short for that check to be meaningful.
	if !strings.Contains(one, "phase") {
		t.Fatalf("E17 block missing the phase table:\n%s", one)
	}
}

// checkBlockWorkerInvariance runs one experiment block with the process-wide
// default pool — the one a block's own fan-out (batch, SweepLoad) runs on —
// pinned to 1, 2 and 8 workers and requires identical bytes, mirroring
// loadbalance.TestSweepLoadWorkerInvariance one level up. RunAll's workers
// argument only spreads whole blocks, so the RunAll invariance tests never
// vary this inner width.
func checkBlockWorkerInvariance(t *testing.T, id string) {
	t.Helper()
	var exp Experiment
	for _, e := range All() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.Run == nil {
		t.Fatalf("no experiment %s", id)
	}
	block := func(workers int) string {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		var out bytes.Buffer
		exp.Run(&out, Options{Seed: 42, Scale: 0.05})
		return out.String()
	}
	one := block(1)
	if strings.Count(one, "\n") < 3 {
		t.Fatalf("%s block suspiciously short:\n%s", id, one)
	}
	for _, workers := range []int{2, 8} {
		if got := block(workers); got != one {
			t.Fatalf("%s differs between 1 and %d workers:\n--- 1 ---\n%s\n--- %d ---\n%s",
				id, workers, one, workers, got)
		}
	}
}

// TestE19WorkerInvariance: E19's eighteen runs execute concurrently, two per
// mix row sharing one DiurnalMix/Bursty/CorrelatedBursts prototype (cloned
// per run by RunE), and must print what the serial loop printed. CI also
// runs it under the race detector.
func TestE19WorkerInvariance(t *testing.T) { checkBlockWorkerInvariance(t, "E19") }

// TestE6E9E10WorkerInvariance covers the other blocks whose row loops now
// run as one batch.
func TestE6E9E10WorkerInvariance(t *testing.T) {
	for _, id := range []string{"E6", "E9", "E10"} {
		checkBlockWorkerInvariance(t, id)
	}
}

// TestBatchLibrariesLeaveRegistryAlone pins where batch counts live: in the
// values the calls return (PoolStats, ServiceStats, faults.Stats,
// loadbalance.Result, []Timing), not in the process-wide registry. E17 runs
// entangle, faults, core, loadbalance.RunE and parallel; only the solve cache
// (games) may move a key.
func TestBatchLibrariesLeaveRegistryAlone(t *testing.T) {
	snapshot := func() map[string]float64 {
		m := make(map[string]float64)
		for _, kv := range metrics.Default().Snapshot() {
			m[kv.Key] = kv.Value
		}
		return m
	}
	before := snapshot()

	var e17 []Experiment
	for _, e := range All() {
		if e.ID == "E17" {
			e17 = append(e17, e)
		}
	}
	if timings, err := RunAll(context.Background(), &bytes.Buffer{}, e17, tinyOpts(), 2); err != nil || len(timings) != 1 {
		t.Fatalf("E17: %d timings, err %v", len(timings), err)
	}
	cfg := loadbalance.ShardedConfig{
		Cells: 4, CellBalancers: 4, CellServers: 4, Warmup: 10, Slots: 50,
		Discipline: loadbalance.BatchCFirst, Workload: workload.Bernoulli{PC: 0.5}, Seed: 3,
	}
	if _, err := loadbalance.RunSharded(cfg, func(int) loadbalance.Strategy { return loadbalance.RandomStrategy{} }); err != nil {
		t.Fatal(err)
	}
	parallel.ForEachN(4, 16, func(int) {})

	for k, v := range snapshot() {
		if strings.HasPrefix(k, "solvecache_") {
			continue
		}
		if was, ok := before[k]; !ok || was != v {
			t.Errorf("registry key %s moved: %v (present %v) -> %v", k, was, ok, v)
		}
	}
}
