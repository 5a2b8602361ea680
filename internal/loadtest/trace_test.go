package loadtest

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

// These tests pin the non-stationary additions to the plan builder: rate
// profiles (diurnal + flash crowd via thinning) and heavy-tailed batch
// sizes. The critical invariant is stream isolation — a plan with neither
// feature must be byte-identical to a pre-feature plan, which the existing
// TestRunVirtualByteIdentical golden pins.

func TestRateProfilePlanDeterministicAndShaped(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 2 * time.Second
	cfg.Rate = workload.DiurnalProfile(2000, 0.8, 500*time.Millisecond)
	a, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.reqs, b.reqs) || !reflect.DeepEqual(a.inputs, b.inputs) {
		t.Fatal("same profiled config produced different plans")
	}
	// Fold arrivals by phase over the 4 cycles the window spans: the second
	// quarter-period brackets the sine's peak, the fourth its trough; with
	// amp 0.8 the folded counts should differ by well over 2x.
	period := 500 * time.Millisecond
	quarter := period / 4
	var peak, trough int
	for _, r := range a.reqs {
		switch phase := r.at % period; {
		case phase >= quarter && phase < 2*quarter:
			peak++
		case phase >= 3*quarter:
			trough++
		}
	}
	if trough == 0 || float64(peak)/float64(trough) < 2 {
		t.Fatalf("diurnal modulation too weak: peak quarter %d vs trough quarter %d", peak, trough)
	}
	// Mean intensity over whole cycles is the base rate; the plan spans 4
	// full cycles, so total arrivals should track base·duration.
	want := 2000.0 * cfg.Duration.Seconds()
	if got := float64(a.Requests()); math.Abs(got-want)/want > 0.10 {
		t.Fatalf("profiled plan has %v arrivals, want ~%v", got, want)
	}
}

// TestRateProfilePlanTracksIntensity checks the thinning construction bin
// by bin: folded over 20 diurnal cycles, the plan's arrival rate in every
// 50 ms phase bin must follow λ(t) at the bin's midpoint within 15 %.
func TestRateProfilePlanTracksIntensity(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 20 * time.Second
	cfg.Rate = workload.DiurnalProfile(2000, 0.6, time.Second)
	cfg.Scenarios = []Scenario{{Name: "info", Weight: 1, Info: true}}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const window = 50 * time.Millisecond
	const cycles = 20
	perCycle := int(time.Second / window)
	counts := make([]int, perCycle)
	for _, r := range plan.reqs {
		counts[int(r.at%time.Second/window)]++
	}
	for bin, n := range counts {
		got := float64(n) / cycles / window.Seconds()
		want := cfg.Rate.Rate(time.Duration(bin)*window + window/2)
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("bin %d: empirical rate %.0f, λ(t) %.0f", bin, got, want)
		}
	}
}

func TestFlashCrowdPlanConcentratesArrivals(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = time.Second
	cfg.Rate = workload.FlashProfile(1000, 500*time.Millisecond, 9, 50*time.Millisecond)
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the 100ms window at flash onset against the 100ms before it:
	// a 9x spike decaying over 50ms should multiply the window's arrivals.
	var before, during int
	for _, r := range plan.reqs {
		switch {
		case r.at >= 400*time.Millisecond && r.at < 500*time.Millisecond:
			before++
		case r.at >= 500*time.Millisecond && r.at < 600*time.Millisecond:
			during++
		}
	}
	if before == 0 || float64(during)/float64(before) < 3 {
		t.Fatalf("flash crowd too weak: %d arrivals before vs %d during", before, during)
	}
}

func TestRateProfileLeavesSizeStreamAlone(t *testing.T) {
	// Adding a Rate profile must not perturb heavy-tail size draws: the
	// acceptance test runs on its own stream. Sizes are compared request-by-
	// request in arrival order restricted to the heavy-tail scenario.
	base := testConfig()
	base.Duration = time.Second
	base.Scenarios = []Scenario{
		{Name: "heavy", Weight: 1, HeavyTail: &HeavyTailBatch{Shape: 1.2, Scale: 1, Max: 256}},
	}
	flat, err := BuildPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	shaped := base
	shaped.Rate = workload.DiurnalProfile(2000, 0.5, 250*time.Millisecond)
	prof, err := BuildPlan(shaped)
	if err != nil {
		t.Fatal(err)
	}
	n := prof.Requests()
	if flat.Requests() < n {
		n = flat.Requests()
	}
	for i := 0; i < n; i++ {
		if flat.reqs[i].n != prof.reqs[i].n {
			t.Fatalf("request %d: size draw changed when a rate profile was added (%d vs %d rounds)",
				i, flat.reqs[i].n, prof.reqs[i].n)
		}
	}
}

func TestHeavyTailBatchSizes(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 2 * time.Second
	cfg.Scenarios = []Scenario{
		{Name: "heavy", Weight: 1, Batch: 4, HeavyTail: &HeavyTailBatch{Shape: 1.1, Scale: 2, Max: 512}},
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxSeen, over16 := 0, 0
	for _, r := range plan.reqs {
		n := int(r.n)
		if n < 1 || n > 512 {
			t.Fatalf("batch size %d outside [1, 512]", n)
		}
		if n > maxSeen {
			maxSeen = n
		}
		if n > 16 {
			over16++
		}
	}
	// Pareto(1.1) has P(X > 16) ≈ (2/16)^1.1 ≈ 10%: the tail must actually
	// be heavy, not clipped to the scale.
	if maxSeen < 64 {
		t.Fatalf("heaviest batch only %d rounds; tail looks truncated", maxSeen)
	}
	if frac := float64(over16) / float64(plan.Requests()); frac < 0.05 || frac > 0.20 {
		t.Fatalf("fraction of >16-round batches = %.3f, want ~0.10", frac)
	}
}

func TestHeavyTailRunVirtual(t *testing.T) {
	// End-to-end through the virtual runner: the reusable response buffer
	// must be sized to the truncation bound, not the fixed Batch field
	// (regression for a slice-bounds panic when a drawn size exceeded every
	// scenario's Batch).
	cfg := testConfig()
	cfg.Duration = 100 * time.Millisecond
	cfg.Scenarios = []Scenario{
		{Name: "decide", Weight: 0.5, Batch: 1},
		{Name: "heavy", Weight: 0.5, HeavyTail: &HeavyTailBatch{Shape: 1.3, Scale: 4, Max: 256}},
	}
	res, err := RunVirtual(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions == 0 || res.Errors > 0 {
		t.Fatalf("heavy-tail virtual run: %d decisions, %d errors", res.Decisions, res.Errors)
	}
	// Heavy scenario must account for far more decisions than requests.
	var heavy *ScenarioResult
	for i := range res.Scenarios {
		if res.Scenarios[i].Name == "heavy" {
			heavy = &res.Scenarios[i]
		}
	}
	if heavy == nil || heavy.Decisions < 4*heavy.Requests {
		t.Fatalf("heavy scenario shape off: %+v", heavy)
	}
}

func TestTraceConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.Rate = &workload.RateProfile{Base: -1}
	if _, err := BuildPlan(bad); err == nil {
		t.Fatal("negative base rate must fail")
	}
	bad = testConfig()
	bad.Scenarios = []Scenario{{Name: "h", Weight: 1, HeavyTail: &HeavyTailBatch{Shape: 1.2, Scale: 1, Max: 0}}}
	if _, err := BuildPlan(bad); err == nil {
		t.Fatal("untruncated heavy tail must fail")
	}
	bad = testConfig()
	bad.Scenarios = []Scenario{{Name: "h", Weight: 1, HeavyTail: &HeavyTailBatch{Shape: 0, Scale: 1, Max: 8}}}
	if _, err := BuildPlan(bad); err == nil {
		t.Fatal("non-positive Pareto shape must fail")
	}
}
