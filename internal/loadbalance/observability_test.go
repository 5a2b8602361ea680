package loadbalance

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/games"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestRoundRobinSurvivesGrowingBalancerCount is the regression test for the
// one-shot sizing of RoundRobinStrategy.next: a single strategy value reused
// across sweep points with a growing balancer count used to index past the
// first call's length and panic.
func TestRoundRobinSurvivesGrowingBalancerCount(t *testing.T) {
	rr := &RoundRobinStrategy{}
	for _, n := range []int{4, 8} {
		cfg := Config{
			NumBalancers: n,
			NumServers:   n,
			Warmup:       0,
			Slots:        50,
			Discipline:   BatchCFirst,
			Workload:     workload.Bernoulli{PC: 0.5},
			Seed:         11,
		}
		r, err := RunE(cfg, rr)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if r.Arrived != int64(n*cfg.Slots) {
			t.Fatalf("N=%d: arrived %d, want %d", n, r.Arrived, n*cfg.Slots)
		}
	}
}

// TestColocationExcludesWarmup pins the measurement-window semantics the
// colocation fix establishes: Result.Colocation counts only measured slots,
// exactly like QueueLen and Delay. With N balancers and static pairing the
// strategy plays N/2 pair-rounds per slot, so the trial count must be
// Slots·N/2 — not (Warmup+Slots)·N/2 as the pre-fix code reported.
func TestColocationExcludesWarmup(t *testing.T) {
	cfg := Config{
		NumBalancers: 40,
		NumServers:   40,
		Warmup:       300,
		Slots:        400,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         13,
	}
	s := NewClassicalPairedStrategy()
	r := Run(cfg, s)
	wantTrials := int64(cfg.Slots) * int64(cfg.NumBalancers) / 2
	if r.Colocation.Trials() != wantTrials {
		t.Fatalf("colocation trials %d include warmup slots, want %d (measured window only)",
			r.Colocation.Trials(), wantTrials)
	}
	// The measured-window rate must still be the game's classical value.
	if math.Abs(r.Colocation.Rate()-0.75) > 0.02 {
		t.Fatalf("measured-window colocation rate %v, want ≈0.75", r.Colocation.Rate())
	}
}

// TestDedicatedSingleServer: with one server the C/E partition degenerates;
// the pre-fix code clamped the C partition to zero servers and panicked in
// rng.IntN(0) on the first type-C task.
func TestDedicatedSingleServer(t *testing.T) {
	cfg := Config{
		NumBalancers: 4,
		NumServers:   1,
		Warmup:       0,
		Slots:        100,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         17,
	}
	r, err := RunE(cfg, DedicatedStrategy{FractionC: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Served == 0 {
		t.Fatal("single-server dedicated run served nothing")
	}
}

// TestEveryStrategyRunsOnOneServer: a one-server cluster admits exactly one
// assignment, and every exported strategy must make it instead of panicking.
// The pairing strategies used to draw xrand.TwoDistinct(1) and panic; the
// odd balancer count also exercises each pairing strategy's unpaired tail.
func TestEveryStrategyRunsOnOneServer(t *testing.T) {
	rng := xrand.New(31, 1)
	chsh := games.NewColocationCHSH()
	for _, strat := range []Strategy{
		RandomStrategy{},
		&RoundRobinStrategy{},
		PowerOfTwoStrategy{},
		NewQuantumPairedStrategy(1.0, rng),
		NewClassicalPairedStrategy(),
		DedicatedStrategy{FractionC: 0.5},
		OracleStrategy{},
		NewSupplyLimitedStrategy(NewRatedSupplier(1e6, 1, 8), time.Microsecond, rng),
		NewGraphPairedStrategy(chsh, 1.0, rng),
		NewGraphClassicalStrategy(chsh),
	} {
		cfg := Config{NumBalancers: 5, NumServers: 1, Slots: 200, Discipline: BatchCFirst,
			Workload: workload.Bernoulli{PC: 0.5}, Seed: 31}
		r, err := RunE(cfg, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if r.Arrived != int64(cfg.NumBalancers*cfg.Slots) || r.Arrived != r.Served+r.QueuedAtEnd {
			t.Fatalf("%s: arrived %d, served %d + queued %d", strat.Name(), r.Arrived, r.Served, r.QueuedAtEnd)
		}
	}
}

// TestValidateDistinguishesSlotsFromWarmup pins the two precise error
// messages: a non-positive Slots is about measured slots, a negative Warmup
// is about warmup — not the misleading shared message the pre-fix code
// emitted for both.
func TestValidateDistinguishesSlotsFromWarmup(t *testing.T) {
	base := Config{NumBalancers: 1, NumServers: 1, Workload: workload.Bernoulli{}}

	noSlots := base
	noSlots.Slots = 0
	if err := noSlots.Validate(); err == nil || !strings.Contains(err.Error(), "measured slots") {
		t.Fatalf("Slots=0 error %v, want a 'measured slots' message", err)
	}

	negWarmup := base
	negWarmup.Slots = 10
	negWarmup.Warmup = -1
	err := negWarmup.Validate()
	if err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("Warmup=-1 error %v, want a 'warmup' message", err)
	}
	if strings.Contains(err.Error(), "measured slots") {
		t.Fatalf("Warmup=-1 error %v blames measured slots", err)
	}
}

// TestRecorderDoesNotPerturbResults is the tentpole's safety contract: a
// run with a SlotSeries recorder attached produces exactly the results of
// the nil-recorder run (the recorder observes, it does not participate).
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	base := Config{
		NumBalancers: 40,
		NumServers:   38,
		Warmup:       200,
		Slots:        800,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         23,
	}
	plain := Run(base, NewQuantumPairedStrategy(1.0, xrand.New(23, 1)))

	recorded := base
	rec := &SlotSeries{}
	recorded.Recorder = rec
	withRec := Run(recorded, NewQuantumPairedStrategy(1.0, xrand.New(23, 1)))

	if plain.QueueLen.Mean() != withRec.QueueLen.Mean() ||
		plain.Delay.Mean() != withRec.Delay.Mean() ||
		plain.Arrived != withRec.Arrived ||
		plain.Served != withRec.Served ||
		plain.Colocation.Rate() != withRec.Colocation.Rate() {
		t.Fatalf("recorder changed results:\nnil: %+v\nrecorded: %+v", plain, withRec)
	}
	if rec.Len() != base.Warmup+base.Slots {
		t.Fatalf("recorded %d slots, want %d", rec.Len(), base.Warmup+base.Slots)
	}
}

// TestSlotSeriesContents cross-checks the recorded time series against the
// aggregate Result: per-slot arrivals are constant (every balancer emits a
// task each slot), measured flags split at the warmup boundary, and the
// measured-slot service counts sum to Result.Served.
func TestSlotSeriesContents(t *testing.T) {
	cfg := Config{
		NumBalancers: 20,
		NumServers:   20,
		Warmup:       100,
		Slots:        300,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         29,
	}
	rec := &SlotSeries{}
	cfg.Recorder = rec
	res := Run(cfg, NewQuantumPairedStrategy(1.0, xrand.New(29, 1)))

	var servedMeasured, measuredSlots float64
	for i := range rec.Slots {
		if rec.Arrived[i] != float64(cfg.NumBalancers) {
			t.Fatalf("slot %d arrived %v, want %d", i, rec.Arrived[i], cfg.NumBalancers)
		}
		wantMeasured := 0.0
		if i >= cfg.Warmup {
			wantMeasured = 1
		}
		if rec.Measured[i] != wantMeasured {
			t.Fatalf("slot %d measured %v, want %v", i, rec.Measured[i], wantMeasured)
		}
		if rec.QueueMax[i] > rec.QueueTotal[i] {
			t.Fatalf("slot %d max %v exceeds total %v", i, rec.QueueMax[i], rec.QueueTotal[i])
		}
		if rec.Measured[i] == 1 {
			servedMeasured += rec.Served[i]
			measuredSlots++
		}
	}
	if measuredSlots != float64(cfg.Slots) {
		t.Fatalf("%v measured slots, want %d", measuredSlots, cfg.Slots)
	}
	if servedMeasured != float64(res.Served) {
		t.Fatalf("series served %v != result served %d", servedMeasured, res.Served)
	}
}

// TestSweepBothMatchesSingleSweeps: the bundled sweep must reproduce the
// queue-length-only sweep exactly (same simulations, same seeds).
func TestSweepBothMatchesSingleSweeps(t *testing.T) {
	base := Config{
		NumBalancers: 20,
		Warmup:       100,
		Slots:        400,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         41,
	}
	loads := []float64{0.8, 1.0, 1.2}
	factory := func() Strategy { return RandomStrategy{} }
	q, _ := SweepBoth(base, factory, loads, 0)
	q2 := SweepLoad(base, factory, loads, 0)
	for i := range loads {
		if q.Y[i] != q2.Y[i] || q.CI[i] != q2.CI[i] {
			t.Fatalf("point %d: SweepBoth (%v ±%v) != SweepLoad (%v ±%v)",
				i, q.Y[i], q.CI[i], q2.Y[i], q2.CI[i])
		}
	}
}
