package loadtest

import (
	"bytes"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// testConfig is a small but non-trivial run: ~600 arrivals over 300ms of
// virtual time across the default mix.
func testConfig() Config {
	return Config{
		Seed:      42,
		Duration:  300 * time.Millisecond,
		TargetRPS: 2000,
		Sessions:  2,
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	a, err := BuildPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.reqs, b.reqs) || !reflect.DeepEqual(a.inputs, b.inputs) {
		t.Fatal("same config produced different plans")
	}
	if a.Requests() < 100 {
		t.Fatalf("plan too small: %d requests", a.Requests())
	}
	// Arrivals are in order and inside the window.
	last := time.Duration(-1)
	for _, r := range a.reqs {
		if r.at < last || r.at >= a.Config.Duration {
			t.Fatalf("arrival %v out of order/window (last %v)", r.at, last)
		}
		last = r.at
	}
}

func TestBuildPlanScenarioMix(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 2 * time.Second
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(plan.Scenarios))
	for _, r := range plan.reqs {
		counts[r.scenario]++
		if plan.Scenarios[r.scenario].Info != (r.n == 0) {
			t.Fatal("info requests must carry no rounds, decide requests must")
		}
		if n := plan.Scenarios[r.scenario].Batch; n > 1 && int(r.n) != n {
			t.Fatalf("scenario batch %d but %d rounds", n, r.n)
		}
	}
	total := float64(plan.Requests())
	for i, sc := range plan.Scenarios {
		got := float64(counts[i]) / total
		if got < sc.Weight-0.1 || got > sc.Weight+0.1 {
			t.Fatalf("scenario %q share %.3f, want ~%.2f", sc.Name, got, sc.Weight)
		}
	}
}

func TestBuildPlanValidation(t *testing.T) {
	bad := testConfig()
	bad.Scenarios = []Scenario{{Name: "x", Weight: 0}}
	if _, err := BuildPlan(bad); err == nil {
		t.Fatal("zero total weight must fail")
	}
	bad = testConfig()
	bad.Scenarios = []Scenario{{Name: "x", Weight: -1}, {Name: "y", Weight: 2}}
	if _, err := BuildPlan(bad); err == nil {
		t.Fatal("negative weight must fail")
	}
}

// TestBuildPlanRejectsRatesWithoutAGap: a rate whose arrival gaps truncate
// to zero nanoseconds used to keep BuildPlan appending requests at one
// instant until memory ran out, and a rate so low that one gap overflowed a
// Duration wrapped the clock negative and did the same. Each must return an
// error; each runs in a goroutine under a deadline, so a regression fails
// instead of hanging.
func TestBuildPlanRejectsRatesWithoutAGap(t *testing.T) {
	inf := math.Inf(1)
	for name, tc := range map[string]struct {
		rps  float64
		rate *workload.RateProfile
	}{
		"+Inf target":          {rps: inf},
		"NaN target":           {rps: math.NaN()},
		"1e18 target":          {rps: 1e18},
		"+Inf profile base":    {rate: &workload.RateProfile{Base: inf}},
		"+Inf flash magnitude": {rate: workload.FlashProfile(1000, 0, inf, time.Second)},
		"1e10 profile base":    {rate: &workload.RateProfile{Base: 1e10}},
		"1e-300 target":        {rps: 1e-300},
		"1e-300 profile base":  {rate: &workload.RateProfile{Base: 1e-300}},
	} {
		cfg := testConfig()
		cfg.TargetRPS, cfg.Rate = tc.rps, tc.rate
		done := make(chan error, 1)
		go func() {
			_, err := BuildPlan(cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: BuildPlan accepted the rate", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: BuildPlan did not return within 2 s", name)
		}
	}
}

// TestRunVirtualByteIdentical is the core determinism contract: two virtual
// runs of the same config must render byte-identical JSON reports.
func TestRunVirtualByteIdentical(t *testing.T) {
	run := func() []byte {
		res, err := RunVirtual(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("virtual reports differ:\n%s\n----\n%s", a, b)
	}
}

func TestRunVirtualResultShape(t *testing.T) {
	res, err := RunVirtual(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "virtual" || res.Seed != 42 {
		t.Fatalf("identity: %+v", res)
	}
	if res.Errors != 0 || res.Retryable != 0 || res.Transport != 0 {
		t.Fatalf("virtual run had errors: %+v", res)
	}
	if res.Requests == 0 || res.Decisions <= res.Requests/2 {
		t.Fatalf("counts: requests=%d decisions=%d", res.Requests, res.Decisions)
	}
	// The default mix plays mostly quantum rounds; the colocation game's
	// quantum win rate is ~0.85, classical ~0.75 — anything below 0.70
	// means the harness is mis-recording wins.
	if res.WinRate < 0.70 || res.WinRate > 0.95 {
		t.Fatalf("win rate %.3f outside sane band", res.WinRate)
	}
	// Latency must reflect the simulated decision physics: quantum rounds
	// cost ~1µs measurement latency, so p50 sits at or below ~1µs scale
	// and max within the coherence-window scale.
	if res.Latency.MaxNS <= 0 {
		t.Fatal("no latency recorded")
	}
	if res.Latency.P50NS > int64(100*time.Microsecond) {
		t.Fatalf("p50 %dns implausibly large for simulated decisions", res.Latency.P50NS)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("scenario results: %+v", res.Scenarios)
	}
	var sum int64
	for _, sc := range res.Scenarios {
		sum += sc.Requests
	}
	if sum != res.Requests {
		t.Fatalf("scenario requests %d don't sum to total %d", sum, res.Requests)
	}
}

// TestBatchTailDecoherence pins the physical effect the load test
// surfaces: a batch's rounds consume into the stored-pair age distribution
// at one instant, so batch-heavy traffic wins less than a single-round
// stream against identically provisioned sources — the gap is the batch
// tail riding aged (decohered) pairs.
func TestBatchTailDecoherence(t *testing.T) {
	base := Config{
		Seed:      5,
		Duration:  time.Second,
		TargetRPS: 2000,
		Sessions:  2,
		SessionTemplate: serve.SessionRequest{
			PairRate: 1e6,
			PoolCap:  512,
		},
	}
	singles := base
	singles.Scenarios = []Scenario{{Name: "decide", Weight: 1, Batch: 1}}
	batches := base
	batches.TargetRPS = 250 // ~same decisions/sec as the single stream
	batches.Scenarios = []Scenario{{Name: "batch64", Weight: 1, Batch: 64}}

	sres, err := RunVirtual(singles)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := RunVirtual(batches)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh-pair single-round play sits near the quantum value (~0.85);
	// batch-64 tails ride pairs up to ~64µs old against a 200µs T2 and land
	// measurably lower, while staying above the 0.75 classical floor.
	if sres.WinRate < 0.82 {
		t.Fatalf("single-round win rate %.4f, want ~0.85 (fresh pairs)", sres.WinRate)
	}
	if bres.WinRate > sres.WinRate-0.02 {
		t.Fatalf("batch win rate %.4f not measurably below single-round %.4f", bres.WinRate, sres.WinRate)
	}
	if bres.WinRate < 0.73 {
		t.Fatalf("batch win rate %.4f fell below the classical floor", bres.WinRate)
	}
}

// TestRunVirtualSeedSensitivity: different seeds must produce different
// workloads (guards against a stream-derivation bug collapsing all seeds
// onto one schedule).
func TestRunVirtualSeedSensitivity(t *testing.T) {
	cfgA := testConfig()
	cfgB := testConfig()
	cfgB.Seed = 43
	a, err := BuildPlan(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.reqs, b.reqs) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestRunWallSmoke drives a short wall-clock run against a live loopback
// daemon: every request must complete cleanly and the report must reflect
// real throughput.
func TestRunWallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	srv := serve.NewServer(serve.Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.StopSessions()
	}()

	cfg := Config{
		Seed:      7,
		Duration:  250 * time.Millisecond,
		TargetRPS: 400,
		Sessions:  2,
	}
	res, err := RunWall(cfg, WallOptions{Client: serve.NewClient(ts.URL)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "wall" {
		t.Fatalf("mode %q", res.Mode)
	}
	if res.Errors != 0 || res.Transport != 0 || res.Retryable != 0 {
		t.Fatalf("healthy server run had failures: %+v", res)
	}
	if res.Requests == 0 || res.Decisions == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if res.Latency.MaxNS <= 0 || res.Latency.P50NS <= 0 {
		t.Fatalf("wall latency not recorded: %+v", res.Latency)
	}
}
