package loadtest

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// These tests pin the harness's own bookkeeping: what the replay loop may
// assume about a plan, how errors are bucketed, that merging scenario
// histograms at finish reports what recording every decision twice reported,
// and that replaying a request costs the harness no allocation.

func TestPlanArrivalsMonotone(t *testing.T) {
	// The runners replay Plan.reqs as it stands, so BuildPlan must emit
	// arrivals in order on both generation paths (exponential gaps, and
	// thinning under a Rate profile) whatever the scenario mix draws.
	constant := testConfig()
	profiled := testConfig()
	profiled.Duration = time.Second
	profiled.Rate = workload.FlashProfile(1500, 300*time.Millisecond, 6, 200*time.Millisecond)
	heavy := testConfig()
	heavy.Scenarios = []Scenario{
		{Name: "heavy", Weight: 0.7, HeavyTail: &HeavyTailBatch{Shape: 1.2, Scale: 2, Max: 128}},
		{Name: "info", Weight: 0.3, Info: true},
	}
	for name, cfg := range map[string]Config{"constant": constant, "rate profile": profiled, "heavy tail": heavy} {
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan.Requests() < 100 {
			t.Fatalf("%s: plan too small to mean anything: %d requests", name, plan.Requests())
		}
		for i := 1; i < len(plan.reqs); i++ {
			if plan.reqs[i].at < plan.reqs[i-1].at {
				t.Fatalf("%s: request %d arrives at %v, before request %d at %v",
					name, i, plan.reqs[i].at, i-1, plan.reqs[i-1].at)
			}
		}
		if len(plan.ids) != plan.Config.Sessions {
			t.Fatalf("%s: plan names %d sessions for %d", name, len(plan.ids), plan.Config.Sessions)
		}
		for i, req := range plan.sessionRequests() {
			if want := fmt.Sprintf("lt-%03d", i); req.ID != want || plan.ids[i] != want {
				t.Fatalf("%s: session %d is %q / %q, want %q", name, i, req.ID, plan.ids[i], want)
			}
		}
	}
}

func TestClassifyBuckets(t *testing.T) {
	shed := &serve.ShedError{Outcome: admission.ShedLimiter}
	api := func(status int) error { return &serve.APIError{Status: status, Message: "m"} }
	wrap := func(err error) error { return fmt.Errorf("outer: %w", err) }
	cases := []struct {
		name string
		err  error
		want errKind
	}{
		{"shed", shed, errShed},
		{"shed wrapped", wrap(shed), errShed},
		{"shed wrapped twice", wrap(wrap(shed)), errShed},
		{"api 429", api(http.StatusTooManyRequests), errShed},
		{"api 429 wrapped", wrap(api(http.StatusTooManyRequests)), errShed},
		{"api 503", api(http.StatusServiceUnavailable), errRetryable},
		{"api 503 wrapped", wrap(api(http.StatusServiceUnavailable)), errRetryable},
		{"api 400", api(http.StatusBadRequest), errHard},
		{"api 400 wrapped twice", wrap(wrap(api(http.StatusBadRequest))), errHard},
		{"draining", serve.ErrDraining, errRetryable},
		{"draining wrapped", wrap(serve.ErrDraining), errRetryable},
		{"no session", serve.ErrNoSession, errHard},
		{"no session wrapped", wrap(serve.ErrNoSession), errHard},
		{"canceled", context.Canceled, errTransport},
		{"canceled wrapped", wrap(context.Canceled), errTransport},
		{"plain", errors.New("connection reset"), errTransport},
		// A shed outranks whatever else shares its chain, as before.
		{"shed joined with draining", errors.Join(serve.ErrDraining, shed), errShed},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify = %d, want %d", c.name, got, c.want)
		}
	}
}

// bothRecorder is the recorder as it was: every decision written into its
// scenario's histogram and into the overall one as it happens.
type bothRecorder struct {
	*recorder
	overall *stats.HDRHistogram
	sumNS   int64
}

func (b *bothRecorder) decision(scenario int, latencyNS int64, win bool, budgetNS int64) {
	b.recorder.decision(scenario, latencyNS, win, budgetNS)
	b.overall.Record(latencyNS)
	b.sumNS += latencyNS
}

func TestOverallHistogramEqualsMergedScenarios(t *testing.T) {
	// Three scenarios, the middle one an info poll whose (wall-mode, hence
	// non-zero) latencies must stay out of the overall figures; the two
	// decision scenarios overlap so no quantile is one scenario's alone.
	names := []string{"decide", "info", "batch"}
	rec := newRecorder(names)
	oracle := &bothRecorder{recorder: newRecorder(names), overall: stats.NewHDRHistogram()}
	next := rand.New(rand.NewPCG(22, 3)).Int64N
	for i := 0; i < 5000; i++ {
		switch scenario := i % 3; scenario {
		case 1:
			lat := 1 + next(9_000_000)
			rec.poll(scenario, lat)
			oracle.poll(scenario, lat)
		default:
			lat := next(3_000_000) << uint(scenario) // batch reaches further into the tail
			win := lat&1 == 0
			rec.decision(scenario, lat, win, 2_500_000)
			oracle.decision(scenario, lat, win, 2_500_000)
		}
	}
	got := rec.finish("virtual", Config{}, time.Second)
	if want := quantiles(oracle.overall, oracle.sumNS); got.Latency != want {
		t.Fatalf("overall latency from merged scenarios\n got %+v\nwant %+v", got.Latency, want)
	}
	if got.Latency.MaxNS == 0 || got.Latency.MeanNS == 0 || got.Scenarios[1].Latency.MaxNS == 0 {
		t.Fatalf("degenerate fixture: %+v", got)
	}
	// Per-scenario results are what they always were.
	want := oracle.recorder.finish("virtual", Config{}, time.Second)
	for i := range names {
		if got.Scenarios[i] != want.Scenarios[i] {
			t.Fatalf("scenario %s:\n got %+v\nwant %+v", names[i], got.Scenarios[i], want.Scenarios[i])
		}
	}
}

// replayConfigs are the three shapes the replay loop has: single decides,
// batches, and a deadline-stamped overload where two thirds are shed.
func replayConfigs() map[string]Config {
	decide := Config{Seed: 42, Duration: 50 * time.Millisecond, TargetRPS: 20_000, Sessions: 4,
		Scenarios: []Scenario{{Name: "decide", Weight: 1, Batch: 1}}}
	batch := decide
	batch.TargetRPS = 2000
	batch.Scenarios = []Scenario{{Name: "batch64", Weight: 1, Batch: 64}}
	shed := overloadConfig(30_000)
	shed.Duration = 50 * time.Millisecond
	return map[string]Config{"decide": decide, "batch64": batch, "shed": shed}
}

func TestVirtualReplayAllocsIndependentOfRequests(t *testing.T) {
	// A run allocates for its server, sessions, recorder and result; none of
	// that may scale with the number of requests replayed. (It did: one
	// formatted session ID per request.) Count-based, so it holds on any
	// host. Single decides only: a request the deadline gate sheds costs
	// serve one ShedError, which is not the harness's to save.
	cfg := replayConfigs()["decide"]
	allocs := func(window time.Duration) (float64, int) {
		cfg.Duration = window
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := RunVirtualPlan(plan); err != nil {
				t.Fatal(err)
			}
		}), plan.Requests()
	}
	small, n := allocs(25 * time.Millisecond)
	large, n4 := allocs(100 * time.Millisecond)
	t.Logf("%v allocs for %d requests, %v for %d", small, n, large, n4)
	if n4 < 3*n {
		t.Fatalf("plans of %d and %d requests do not separate", n, n4)
	}
	if large-small > 16 {
		t.Errorf("%d more requests cost %v more allocations: the replay loop allocates per request", n4-n, large-small)
	}
}

func BenchmarkRunVirtualPlan(b *testing.B) {
	for _, name := range []string{"decide", "batch64", "shed"} {
		plan, err := BuildPlan(replayConfigs()[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunVirtualPlan(plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*plan.Requests()), "ns/req")
		})
	}
}
