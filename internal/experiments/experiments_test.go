package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/loadbalance"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/serve"
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
	before := defaultRegistry()

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
	registryUnmoved(t, before)
}

// defaultRegistry is the process-wide registry's snapshot by key.
func defaultRegistry() map[string]float64 {
	m := make(map[string]float64)
	for _, kv := range metrics.Default().Snapshot() {
		m[kv.Key] = kv.Value
	}
	return m
}

// registryUnmoved fails for every key outside solvecache_* that appeared in
// or moved in the process-wide registry since before.
func registryUnmoved(t *testing.T, before map[string]float64) {
	t.Helper()
	for k, v := range defaultRegistry() {
		if strings.HasPrefix(k, "solvecache_") {
			continue
		}
		if was, ok := before[k]; !ok || was != v {
			t.Errorf("registry key %s moved: %v (present %v) -> %v", k, was, ok, v)
		}
	}
}

// TestServerLeavesProcessRegistryAlone pins where the serving stack's
// numbers live: in the server that counted them. A full server life with
// admission on — sessions, every decide door, each shed reason, brownout,
// drain, the final artifact — moves no key in the process-wide registry.
func TestServerLeavesProcessRegistryAlone(t *testing.T) {
	before := defaultRegistry()

	now := time.Unix(1_700_000_000, 0)
	srv := serve.NewServer(serve.Config{
		Shards: 1,
		Clock:  func() time.Time { return now },
		Admission: &admission.Config{
			InitialService: 100 * time.Microsecond,
			MaxBacklog:     10 * time.Millisecond,
			Limiter:        admission.LimiterConfig{Initial: 1, Min: 1, Max: 1, QueueDepth: 1},
		},
	})
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	if rec := do(http.MethodPost, "/v1/sessions", `{"id":"hi","endpoints":["a","b"],"priority":"high"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if _, err := srv.CreateSession(serve.SessionRequest{ID: "lo", Endpoints: []string{"a", "b"}, Priority: "low"}); err != nil {
		t.Fatal(err)
	}

	// Every door, accepted.
	var out [1]serve.DecideResponse
	if err := srv.Decide("hi", 0, 1, &out[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.DecideBatch("hi", []serve.Round{{X: 1, Y: 1}}, out[:]); err != nil {
		t.Fatal(err)
	}
	do(http.MethodPost, "/v1/decide", `{"session":"hi","x":1,"y":0}`)
	do(http.MethodPost, "/v1/decide/batch", `{"session":"hi","rounds":[{"x":0,"y":0}]}`)
	do(http.MethodGet, "/v1/sessions/hi", "")

	// Limiter: the one slot held, an in-process decide is refused and a
	// lapsed HTTP request expires in the queue.
	lim := srv.Admission().Limiter()
	if !lim.TryAcquire() {
		t.Fatal("the limiter's one slot is taken")
	}
	srv.Decide("hi", 0, 0, &out[0])
	do(http.MethodPost, "/v1/decide", fmt.Sprintf(`{"session":"hi","x":0,"y":0,"deadline_unix_ns":%d}`, now.Add(-time.Second).UnixNano()))
	lim.Release(0, nil)

	// Deadline: a budget under one modeled service quantum.
	srv.DecideBatchDeadline("hi", now.Add(50*time.Microsecond), []serve.Round{{}}, out[:])
	// Backlog: a batch costing more than the cap.
	srv.DecideBatch("hi", make([]serve.Round, 200), make([]serve.DecideResponse, 200))
	// Brownout, then priority: 8ms of frozen-clock backlog keeps the gate
	// past its enter line for the sustain count; the low tier sheds there.
	srv.DecideBatch("hi", make([]serve.Round, 80), make([]serve.DecideResponse, 80))
	for i := 0; i < 10; i++ {
		srv.Decide("hi", 0, 0, &out[0])
		srv.Decide("lo", 0, 0, &out[0])
	}

	metricsBody := do(http.MethodGet, "/metrics", "").Body.String()
	for _, line := range []string{"admission_brownout_entered_total 1", "serve_sessions_active 2"} {
		if !strings.Contains(metricsBody, line+"\n") {
			t.Errorf("the server's /metrics lacks %q", line)
		}
	}
	for o := admission.ShedDeadline; o <= admission.ShedExpired; o++ {
		if key := metrics.Key("admission_shed_total", "reason", o.String()) + " "; !strings.Contains(metricsBody, key) || strings.Contains(metricsBody, key+"0\n") {
			t.Errorf("the life never shed for %s:\n%s", o, metricsBody)
		}
	}

	srv.StartDrain()
	srv.Decide("hi", 0, 0, &out[0])
	srv.Drain(time.Second)
	srv.StopSessions()
	if err := srv.WriteMetricsArtifact(filepath.Join(t.TempDir(), "metrics.json")); err != nil {
		t.Fatal(err)
	}
	registryUnmoved(t, before)
}
