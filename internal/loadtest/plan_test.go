package loadtest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// These tests pin the flat plan layout against the per-request builder it
// replaced (export_test.go), its allocation shape, and the recorder's
// one-pass fold against recording decision by decision.

func TestFlatPlanMatchesPerRequestBuilder(t *testing.T) {
	constant := testConfig()
	profiled := testConfig()
	profiled.Duration = time.Second
	profiled.Rate = workload.FlashProfile(1500, 300*time.Millisecond, 6, 200*time.Millisecond)
	heavy := testConfig()
	heavy.Duration = time.Second
	heavy.Scenarios = []Scenario{
		{Name: "decide", Weight: 0.4, Batch: 1},
		{Name: "heavy", Weight: 0.5, HeavyTail: &HeavyTailBatch{Shape: 1.2, Scale: 2, Max: 128}},
		{Name: "info", Weight: 0.1, Info: true},
	}
	for name, cfg := range map[string]Config{"constant rate": constant, "rate profile": profiled, "heavy tail": heavy} {
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := buildPlanPerRequest(cfg)
		if plan.Requests() != len(want) {
			t.Fatalf("%s: %d requests, the per-request builder %d", name, plan.Requests(), len(want))
		}
		next := uint32(0)
		for i, r := range plan.reqs {
			w := want[i]
			if r.at != w.at || int(r.scenario) != w.scenario || int(r.session) != w.session {
				t.Fatalf("%s: request %d is (%v, %d, %d), want (%v, %d, %d)",
					name, i, r.at, r.scenario, r.session, w.at, w.scenario, w.session)
			}
			if r.first != next {
				t.Fatalf("%s: request %d starts at input %d, want %d", name, i, r.first, next)
			}
			next += r.n
			if got := plan.rounds(r); len(got) != len(w.rounds) || (len(got) > 0 && !reflect.DeepEqual(got, w.rounds)) {
				t.Fatalf("%s: request %d rounds\n got %v\nwant %v", name, i, got, w.rounds)
			}
		}
		if int(next) != len(plan.inputs) {
			t.Fatalf("%s: requests cover %d of %d inputs", name, next, len(plan.inputs))
		}
	}
}

func TestBuildPlanAllocsIndependentOfRequests(t *testing.T) {
	// The plan is presized from its expected arrival count, so building one
	// allocates the same handful of objects at any size: no slice per
	// request, and no growth of the request or input slice. The collector is
	// off while counting: a cycle that a large plan triggers mallocs a few
	// objects of the runtime's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	mixes := map[string][]Scenario{
		"decide":  {{Name: "decide", Weight: 1, Batch: 1}},
		"batch64": DefaultScenarios(),
	}
	for name, mix := range mixes {
		allocs := func(requests float64) (float64, int) {
			cfg := Config{Seed: 9, Duration: time.Second, TargetRPS: requests, Sessions: 4, Scenarios: mix}
			var plan *Plan
			avg := testing.AllocsPerRun(1, func() {
				var err error
				if plan, err = BuildPlan(cfg); err != nil {
					t.Fatal(err)
				}
			})
			return avg, plan.Requests()
		}
		small, n := allocs(1e3)
		large, n5 := allocs(1e5)
		t.Logf("%s: %v allocs for %d requests, %v for %d", name, small, n, large, n5)
		if n5 < 50*n {
			t.Fatalf("%s: plans of %d and %d requests do not separate", name, n, n5)
		}
		if large != small {
			t.Errorf("%s: %d requests cost %v allocations, %d cost %v: BuildPlan allocates per request or regrows its slices",
				name, n, small, n5, large)
		}
	}
}

func TestSessionIDMatchesFormat(t *testing.T) {
	for i := range 12_000 {
		if got, want := sessionID(i), fmt.Sprintf("lt-%03d", i); got != want {
			t.Fatalf("sessionID(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestBuildPlanRejectsWhatItCannotIndex(t *testing.T) {
	// A request's inputs are addressed by a 32-bit offset and count, its
	// session by a 32-bit index: BuildPlan refuses a plan past either rather
	// than wrap, and refuses it before allocating the rounds.
	huge := testConfig()
	huge.Scenarios = []Scenario{{Name: "huge", Weight: 1, Batch: 1 << 33}}
	if _, err := BuildPlan(huge); err == nil {
		t.Fatal("a batch of 2³³ rounds was accepted")
	}
	wide := testConfig()
	wide.Sessions = math.MaxInt32 + 1
	if _, err := BuildPlan(wide); err == nil {
		t.Fatal("2³¹ sessions were accepted")
	}
}

func TestPresizeIsCapped(t *testing.T) {
	for name, cfg := range map[string]Config{
		"absurd rate":   {TargetRPS: 1e18, Duration: time.Hour},
		"absurd window": {TargetRPS: 1e6, Duration: math.MaxInt64},
		"huge batch":    {TargetRPS: 1e3, Duration: time.Second, Scenarios: []Scenario{{Weight: 1, Batch: 1 << 40}}},
		"plain":         {TargetRPS: 1e3, Duration: time.Second},
	} {
		cfg = cfg.withDefaults()
		weights := make([]float64, len(cfg.Scenarios))
		total := 0.0
		for i, sc := range cfg.Scenarios {
			weights[i] = sc.Weight
			total += sc.Weight
		}
		reqs, inputs := presize(cfg, weights, total)
		if cap(reqs) > presizeRequests || cap(inputs) > presizeInputs {
			t.Errorf("%s: presized %d requests and %d inputs, past the caps", name, cap(reqs), cap(inputs))
		}
		if name == "plain" && (cap(reqs) < 1000 || cap(inputs) < 1000) {
			t.Errorf("plain: presized only %d requests and %d inputs for ~1000 and ~20000", cap(reqs), cap(inputs))
		}
	}
}

func TestHeavyTailDrawClampsAsFloat(t *testing.T) {
	// Shape 0.05 puts P(X ≥ 2⁶³) = 2^(−3.15) ≈ 11 % of draws past the last
	// int64, and some at +Inf. Those must clamp to Max; only the draws under
	// 2 may floor to 1: P(X < 2) = 1 − 2^(−0.05) ≈ 3.4 %, about 340 of
	// 10 000. Converting before clamping sent the overflowed draws to 1.
	h := HeavyTailBatch{Shape: 0.05, Scale: 1, Max: 256}
	rng := xrand.New(5, 1)
	ones, maxed := 0, 0
	for i := 0; i < 10_000; i++ {
		switch n := h.draw(rng); {
		case n < 1 || n > h.Max:
			t.Fatalf("draw %d outside [1, %d]", n, h.Max)
		case n == 1:
			ones++
		case n == h.Max:
			maxed++
		}
	}
	if ones > 500 {
		t.Errorf("%d of 10000 draws gave 1 round; about 340 expected", ones)
	}
	// P(X ≥ 256) = 256^(−0.05) ≈ 76 %.
	if maxed < 7000 {
		t.Errorf("%d of 10000 draws reached Max; about 7600 expected", maxed)
	}
	bad := testConfig()
	bad.Scenarios = []Scenario{{Name: "h", Weight: 1, HeavyTail: &HeavyTailBatch{Shape: 1.2, Scale: math.Inf(1), Max: 8}}}
	if _, err := BuildPlan(bad); err == nil {
		t.Fatal("an infinite Pareto scale was accepted")
	}
}

func TestScenarioNamesDistinct(t *testing.T) {
	cases := []struct {
		in, want []string
	}{
		{[]string{"a", "b"}, []string{"a", "b"}},
		{[]string{"a", "a", "a"}, []string{"a", "a#1", "a#2"}},
		{[]string{"a", "a", "a#1"}, []string{"a", "a#1", "a#1#1"}},
		{[]string{"a#1", "a", "a"}, []string{"a#1", "a", "a#2"}},
		{[]string{"", "scenario0", ""}, []string{"scenario0", "scenario0#1", "scenario2"}},
	}
	for _, c := range cases {
		p := &Plan{}
		for _, name := range c.in {
			p.Scenarios = append(p.Scenarios, Scenario{Name: name})
		}
		if got := p.scenarioNames(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("names %q: got %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDecisionsMatchPerDecision(t *testing.T) {
	// One request's decisions folded in one pass — counts, runs of equal
	// latency as one RecordN — leave the recorder exactly where recording
	// them one by one does: same Result, every quantile and the mean.
	names := []string{"single", "batch"}
	rng := rand.New(rand.NewPCG(45, 1))
	for _, budget := range []int64{0, 40_000} {
		rec, oracle := newRecorder(names), newRecorder(names)
		out := make([]serve.DecideResponse, 300)
		for i := 0; i < 2000; i++ {
			scenario := i % 2
			n := 1
			if scenario == 1 {
				n = 1 + rng.IntN(len(out))
			}
			batch := out[:n]
			for j := range batch {
				// Few distinct values, in runs, some negative, so the run
				// boundaries, a leading zero run and the clamp all occur.
				lat := int64(rng.IntN(4)-1) * 20_000
				if j > 0 && rng.IntN(3) > 0 {
					lat = batch[j-1].LatencyNS
				}
				batch[j] = serve.DecideResponse{LatencyNS: lat, WaitedNS: int64(rng.IntN(2)) * 7, QueueNS: int64(j % 2), Win: rng.IntN(4) > 0}
			}
			rec.decisions(scenario, batch, budget)
			for j := range batch {
				oracle.decision(scenario, batch[j].QueueNS+batch[j].LatencyNS+batch[j].WaitedNS, batch[j].Win, budget)
			}
		}
		got, want := rec.finish("virtual", Config{}, time.Second), oracle.finish("virtual", Config{}, time.Second)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: one-pass fold\n got %+v\nwant %+v", budget, got, want)
		}
		for i := range names {
			if !reflect.DeepEqual(rec.perScen[i], oracle.perScen[i]) {
				t.Fatalf("budget %d: scenario %s histograms differ", budget, names[i])
			}
		}
		if budget > 0 && got.Late == 0 {
			t.Fatalf("degenerate fixture: no late decision under budget %d", budget)
		}
	}
}

func BenchmarkBuildPlan(b *testing.B) {
	for name, cfg := range map[string]Config{
		"decide": {Seed: 42, Duration: 100 * time.Millisecond, TargetRPS: 5e5, Sessions: 8,
			Scenarios: []Scenario{{Name: "decide", Weight: 1, Batch: 1}}},
		"batch": {Seed: 42, Duration: time.Second, TargetRPS: 2e3, Sessions: 8,
			Scenarios: []Scenario{{Name: "batch64", Weight: 0.8, Batch: 64}, {Name: "batch256", Weight: 0.2, Batch: 256}}},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var plan *Plan
			for i := 0; i < b.N; i++ {
				var err error
				if plan, err = BuildPlan(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*plan.Requests()), "ns/req")
		})
	}
}
