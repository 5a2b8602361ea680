package loadbalance

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/games"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func testConfig(load float64) Config {
	return Config{
		NumBalancers: 40,
		NumServers:   serversForLoad(40, load),
		Warmup:       500,
		Slots:        3000,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         7,
	}
}

func TestConservationOfTasks(t *testing.T) {
	cfg := testConfig(1.0)
	cfg.Warmup = 0 // measure everything so conservation is exact
	r := Run(cfg, RandomStrategy{})
	if r.Arrived != r.Served+r.QueuedAtEnd {
		t.Fatalf("conservation violated: arrived %d != served %d + queued %d",
			r.Arrived, r.Served, r.QueuedAtEnd)
	}
	if r.Arrived != int64(cfg.NumBalancers*cfg.Slots) {
		t.Fatalf("arrivals %d, want %d", r.Arrived, cfg.NumBalancers*cfg.Slots)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(1.0)
	a := Run(cfg, RandomStrategy{})
	b := Run(cfg, RandomStrategy{})
	if a.QueueLen.Mean() != b.QueueLen.Mean() || a.Served != b.Served {
		t.Fatal("same seed must reproduce the run exactly")
	}
	cfg.Seed = 8
	c := Run(cfg, RandomStrategy{})
	if a.QueueLen.Mean() == c.QueueLen.Mean() {
		t.Fatal("different seeds should differ")
	}
}

func TestServerDisciplineBatchCFirst(t *testing.T) {
	s := &Server{}
	s.push(queued{task: workload.Task{Type: workload.TypeE}})
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	served := s.serve(BatchCFirst, nil)
	if len(served) != 2 {
		t.Fatalf("served %d tasks, want 2 (C batch)", len(served))
	}
	for _, q := range served {
		if q.task.Type != workload.TypeC {
			t.Fatal("batch must be type-C")
		}
	}
	// Only the E remains; next slot serves it alone.
	served = s.serve(BatchCFirst, nil)
	if len(served) != 1 || served[0].task.Type != workload.TypeE {
		t.Fatalf("second slot served %v", served)
	}
	if s.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestServerDisciplineSingleC(t *testing.T) {
	s := &Server{}
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	if got := s.serve(SingleCFirst, nil); len(got) != 1 {
		t.Fatalf("SingleCFirst served %d", len(got))
	}
}

func TestServerDisciplineFIFOBatch(t *testing.T) {
	s := &Server{}
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	s.push(queued{task: workload.Task{Type: workload.TypeE}})
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	got := s.serve(FIFOBatch, nil)
	if len(got) != 2 || got[0].task.Type != workload.TypeC || got[1].task.Type != workload.TypeC {
		t.Fatalf("FIFOBatch head-C should pull the next C: %v", got)
	}
	// E head rides alone.
	got = s.serve(FIFOBatch, nil)
	if len(got) != 1 || got[0].task.Type != workload.TypeE {
		t.Fatalf("FIFOBatch E head: %v", got)
	}
}

func TestServerDisciplineEFirst(t *testing.T) {
	s := &Server{}
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	s.push(queued{task: workload.Task{Type: workload.TypeC}})
	s.push(queued{task: workload.Task{Type: workload.TypeE}})
	got := s.serve(EFirst, nil)
	if len(got) != 1 || got[0].task.Type != workload.TypeE {
		t.Fatalf("EFirst should serve the E: %v", got)
	}
	got = s.serve(EFirst, nil)
	if len(got) != 2 {
		t.Fatalf("EFirst with no E serves the C batch: %v", got)
	}
}

func TestServeEmpty(t *testing.T) {
	s := &Server{}
	for d := BatchCFirst; d <= BatchSameClassC; d++ {
		if got := s.serve(d, nil); got != nil {
			t.Fatalf("%v on empty queue served %v", d, got)
		}
	}
}

// TestServerQueueBookkeeping drives the two per-type FIFOs through pushes,
// out-of-arrival-order serves and strict-order drains, checking Len and the
// type counts the disciplines branch on.
func TestServerQueueBookkeeping(t *testing.T) {
	s := &Server{}
	for i := 0; i < 5; i++ {
		typ := workload.TypeE
		if i%2 == 1 {
			typ = workload.TypeC
		}
		s.push(queued{task: workload.Task{Type: typ}, arrivalSlot: i})
	}
	// Queue: E0 C1 E2 C3 E4 — numC = 2.
	if s.Len() != 5 || s.numOfType(workload.TypeC) != 2 || s.numOfType(workload.TypeE) != 3 {
		t.Fatalf("Len=%d numC=%d numE=%d", s.Len(), s.numOfType(workload.TypeC), s.numOfType(workload.TypeE))
	}
	// Serving the first C from behind an E preserves the arrival order of the
	// rest: a strict-order drain then sees 0, 2, 3, 4 (C3 finds no partner).
	if got := s.serve(SingleCFirst, nil); len(got) != 1 || got[0].arrivalSlot != 1 {
		t.Fatalf("first C served %v, want slot 1", got)
	}
	if s.Len() != 4 || s.numOfType(workload.TypeC) != 1 {
		t.Fatalf("after one C: Len=%d numC=%d, want 4/1", s.Len(), s.numOfType(workload.TypeC))
	}
	for _, want := range []int{0, 2, 3, 4} {
		if got := s.serve(FIFOBatch, nil); len(got) != 1 || got[0].arrivalSlot != want {
			t.Fatalf("strict-order serve got %v, want slot %d", got, want)
		}
	}
	if s.Len() != 0 || s.numOfType(workload.TypeC) != 0 {
		t.Fatalf("queue not empty after draining: Len=%d numC=%d", s.Len(), s.numOfType(workload.TypeC))
	}
	// Interleave pushes and serves long enough to force prefix reclaim.
	for i := 0; i < 1000; i++ {
		s.push(queued{task: workload.Task{Type: workload.TypeC}, arrivalSlot: i})
		if i%2 == 1 {
			if got := s.serve(SingleCFirst, nil); len(got) != 1 || got[0].arrivalSlot != i/2 {
				t.Fatalf("churn serve %d got %v, want slot %d", i, got, i/2)
			}
		}
	}
	if s.Len() != 500 || s.numOfType(workload.TypeC) != 500 {
		t.Fatalf("after churn: Len=%d numC=%d, want 500/500", s.Len(), s.numOfType(workload.TypeC))
	}
}

func TestDisciplineStrings(t *testing.T) {
	seen := map[string]bool{}
	for d := BatchCFirst; d <= BatchSameClassC; d++ {
		name := d.String()
		if name == "" || name == fmt.Sprintf("Discipline(%d)", int(d)) || seen[name] {
			t.Fatalf("discipline %d has no distinct name: %q", int(d), name)
		}
		seen[name] = true
	}
}

// TestUnknownDisciplineIsAnError pins RunE's contract for the one Config
// field Validate used to skip: an out-of-range discipline must come back as
// an error, not as a panic inside serve on the first non-empty queue (which,
// under a sweep, fires on a worker goroutine).
func TestUnknownDisciplineIsAnError(t *testing.T) {
	for _, d := range []Discipline{-1, BatchSameClassC + 1, 99} {
		cfg := testConfig(1.0)
		cfg.Discipline = d
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted discipline %d", int(d))
		}
		if _, err := RunE(cfg, RandomStrategy{}); err == nil {
			t.Errorf("RunE accepted discipline %d", int(d))
		}
		sharded := ShardedConfig{Cells: 2, CellBalancers: 10, CellServers: 10, Slots: 10,
			Discipline: d, Workload: workload.Bernoulli{PC: 0.5}}
		if _, err := RunSharded(sharded, func(int) Strategy { return RandomStrategy{} }); err == nil {
			t.Errorf("RunSharded accepted discipline %d", int(d))
		}
	}
	for d := BatchCFirst; d <= BatchSameClassC; d++ {
		cfg := testConfig(1.0)
		cfg.Discipline = d
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %v: %v", d, err)
		}
	}
}

func TestLowLoadAllStable(t *testing.T) {
	cfg := testConfig(0.5)
	for _, s := range []Strategy{
		RandomStrategy{},
		&RoundRobinStrategy{},
		PowerOfTwoStrategy{},
		NewQuantumPairedStrategy(1.0, xrand.New(1, 1)),
		NewClassicalPairedStrategy(),
		DedicatedStrategy{FractionC: 0.35},
		OracleStrategy{},
	} {
		r := Run(cfg, s)
		if r.QueueLen.Mean() > 2 {
			t.Fatalf("%s unstable at load 0.5: mean queue %v", s.Name(), r.QueueLen.Mean())
		}
	}
}

// TestQuantumBeatsRandomAtKnee is the Figure 4 claim: near the classical
// knee (N/M ≈ 1) the quantum strategy's queues are significantly shorter.
func TestQuantumBeatsRandomAtKnee(t *testing.T) {
	for _, load := range []float64{1.0, 1.1} {
		cfg := testConfig(load)
		rc := Run(cfg, RandomStrategy{})
		rq := Run(cfg, NewQuantumPairedStrategy(1.0, xrand.New(3, 3)))
		if rq.QueueLen.Mean() >= rc.QueueLen.Mean() {
			t.Fatalf("load %v: quantum %v not below random %v",
				load, rq.QueueLen.Mean(), rc.QueueLen.Mean())
		}
	}
}

// TestKneeShift verifies the knee (queue length crossing a threshold)
// happens at strictly higher load for the quantum strategy.
func TestKneeShift(t *testing.T) {
	loads := []float64{0.7, 0.85, 1.0, 1.1, 1.2, 1.3}
	base := testConfig(1)
	classical := SweepLoad(base, func() Strategy { return RandomStrategy{} }, loads)
	quantum := SweepLoad(base, func() Strategy { return NewQuantumPairedStrategy(1.0, xrand.New(4, 4)) }, loads)
	const threshold = 5.0
	kc := classical.KneeX(threshold)
	kq := quantum.KneeX(threshold)
	if math.IsNaN(kc) || math.IsNaN(kq) {
		t.Fatalf("knees not found: classical %v quantum %v", kc, kq)
	}
	if kq <= kc {
		t.Fatalf("quantum knee %v should be later than classical %v", kq, kc)
	}
}

func TestColocationRateMatchesCHSH(t *testing.T) {
	cfg := testConfig(1.0)
	q := NewQuantumPairedStrategy(1.0, xrand.New(5, 5))
	Run(cfg, q)
	rate := q.ColocationStats().Rate()
	if math.Abs(rate-0.8535533905932737) > 0.01 {
		t.Fatalf("colocation success rate %v, want cos²(π/8)", rate)
	}
	// Classical paired succeeds exactly 3/4 of the time.
	c := NewClassicalPairedStrategy()
	Run(cfg, c)
	if math.Abs(c.ColocationStats().Rate()-0.75) > 0.01 {
		t.Fatalf("classical paired colocation %v, want 0.75", c.ColocationStats().Rate())
	}
}

func TestNoisyQuantumDegradesTowardClassical(t *testing.T) {
	cfg := testConfig(1.0)
	q1 := NewQuantumPairedStrategy(1.0, xrand.New(6, 6))
	Run(cfg, q1)
	// At the critical visibility 1/√2 the success rate equals classical 3/4.
	qc := NewQuantumPairedStrategy(1/math.Sqrt2, xrand.New(6, 7))
	Run(cfg, qc)
	if math.Abs(qc.ColocationStats().Rate()-0.75) > 0.01 {
		t.Fatalf("critical-visibility colocation %v, want 0.75", qc.ColocationStats().Rate())
	}
	if q1.ColocationStats().Rate() <= qc.ColocationStats().Rate() {
		t.Fatal("noise should reduce the colocation rate")
	}
}

func TestOracleBeatsEveryoneAtKnee(t *testing.T) {
	cfg := testConfig(1.1)
	ro := Run(cfg, OracleStrategy{})
	rq := Run(cfg, NewQuantumPairedStrategy(1.0, xrand.New(7, 7)))
	rc := Run(cfg, RandomStrategy{})
	if ro.QueueLen.Mean() >= rq.QueueLen.Mean() || ro.QueueLen.Mean() >= rc.QueueLen.Mean() {
		t.Fatalf("oracle %v should beat quantum %v and random %v",
			ro.QueueLen.Mean(), rq.QueueLen.Mean(), rc.QueueLen.Mean())
	}
}

func TestOddBalancerCount(t *testing.T) {
	cfg := testConfig(1.0)
	cfg.NumBalancers = 41
	cfg.NumServers = 41
	r := Run(cfg, NewQuantumPairedStrategy(1.0, xrand.New(8, 8)))
	if r.Arrived == 0 || r.Served == 0 {
		t.Fatal("odd balancer count must still run")
	}
}

func TestRoundRobinSpreadsExactly(t *testing.T) {
	// With N = M and round-robin, each server gets exactly one task per slot
	// once offsets are fixed — there are never collisions.
	cfg := testConfig(1.0)
	cfg.NumBalancers, cfg.NumServers = 20, 20
	cfg.Workload = workload.Bernoulli{PC: 0} // all type-E: service 1/slot
	cfg.Warmup = 0
	r := Run(cfg, &RoundRobinStrategy{})
	// Round-robin with distinct offsets wouldn't collide, but offsets are
	// random; still, the mean queue must be far below random assignment.
	rr := Run(cfg, RandomStrategy{})
	if r.QueueLen.Mean() >= rr.QueueLen.Mean() {
		t.Fatalf("round-robin %v not better than random %v at uniform service",
			r.QueueLen.Mean(), rr.QueueLen.Mean())
	}
}

func TestPowerOfTwoBeatsRandom(t *testing.T) {
	cfg := testConfig(1.0)
	p2 := Run(cfg, PowerOfTwoStrategy{})
	rnd := Run(cfg, RandomStrategy{})
	if p2.QueueLen.Mean() >= rnd.QueueLen.Mean() {
		t.Fatalf("power-of-two %v not better than random %v",
			p2.QueueLen.Mean(), rnd.QueueLen.Mean())
	}
}

func TestRepairingAblationRuns(t *testing.T) {
	cfg := testConfig(1.0)
	s := NewQuantumPairedStrategy(1.0, xrand.New(9, 9)).WithRepairing()
	r := Run(cfg, s)
	if math.Abs(s.ColocationStats().Rate()-0.8535) > 0.02 {
		t.Fatalf("repairing pairing changed the per-round physics: %v", s.ColocationStats().Rate())
	}
	_ = r
}

func TestDedicatedHandlesDegenerateFractions(t *testing.T) {
	cfg := testConfig(1.0)
	for _, f := range []float64{0, 1} {
		r := Run(cfg, DedicatedStrategy{FractionC: f})
		if r.Served == 0 {
			t.Fatalf("dedicated(%v) did not serve", f)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumBalancers: 0, NumServers: 1, Slots: 1, Workload: workload.Bernoulli{}},
		{NumBalancers: 1, NumServers: 1, Slots: 0, Workload: workload.Bernoulli{}},
		{NumBalancers: 1, NumServers: 1, Slots: 1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

func TestDelayAccounting(t *testing.T) {
	// At trivial load every task is served within a slot or two: delays
	// must be small and non-negative.
	cfg := testConfig(0.2)
	r := Run(cfg, RandomStrategy{})
	if r.Delay.Min() < 0 {
		t.Fatal("negative delay")
	}
	if r.Delay.Mean() > 1 {
		t.Fatalf("mean delay %v too high at load 0.2", r.Delay.Mean())
	}
}

func TestSweepProducesMonotoneSeriesNames(t *testing.T) {
	base := testConfig(1)
	base.Slots = 500
	base.Warmup = 100
	s := SweepLoad(base, func() Strategy { return RandomStrategy{} }, []float64{0.5, 1.0})
	if s.Name != "classical-random" || s.Len() != 2 {
		t.Fatalf("series %+v", s)
	}
	d := SweepDelay(base, func() Strategy { return RandomStrategy{} }, []float64{0.5, 1.0})
	if d.Len() != 2 {
		t.Fatal("delay sweep wrong length")
	}
	// Queue length grows with load.
	if s.Y[1] <= s.Y[0] {
		t.Fatalf("queue length should grow with load: %v", s.Y)
	}
}

func TestTheoreticalKnees(t *testing.T) {
	c, p := TheoreticalKnees()
	if c != 1.0 || math.Abs(p-4.0/3) > 1e-12 {
		t.Fatalf("knees %v %v", c, p)
	}
}

func BenchmarkRunRandom(b *testing.B) {
	cfg := testConfig(1.0)
	cfg.Warmup, cfg.Slots = 100, 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, RandomStrategy{})
	}
}

func BenchmarkRunQuantum(b *testing.B) {
	cfg := testConfig(1.0)
	cfg.Warmup, cfg.Slots = 100, 500
	rng := xrand.New(1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, NewQuantumPairedStrategy(1.0, rng))
	}
}

func TestBatchMeansAgreesWithRawMean(t *testing.T) {
	cfg := testConfig(1.1) // near saturation: strong autocorrelation
	r := Run(cfg, RandomStrategy{})
	if math.Abs(r.QueueLenBM.Mean()-r.QueueLen.Mean()) > 0.05*(1+r.QueueLen.Mean()) {
		t.Fatalf("batch mean %v vs raw mean %v", r.QueueLenBM.Mean(), r.QueueLen.Mean())
	}
	// Near saturation the naive per-sample CI is far too optimistic: the
	// batch-means CI must be wider.
	if r.QueueLenBM.CI95() <= r.QueueLen.CI95() {
		t.Fatalf("batch CI %v should exceed naive CI %v near saturation",
			r.QueueLenBM.CI95(), r.QueueLen.CI95())
	}
}

// TestBiasedWorkloadTunedStrategyWins: when the task mix is skewed
// (P(C) = 0.15), the pair strategy solved for the ACTUAL mix satisfies more
// preferences than the strategy solved for the uniform mix — the biased-
// games payoff (games.BiasedColocationGame) landing in the system metric.
func TestBiasedWorkloadTunedStrategyWins(t *testing.T) {
	const pc = 0.15
	cfg := testConfig(1.0)
	cfg.Slots = 12000
	cfg.Workload = workload.Bernoulli{PC: pc}

	rng := xrand.New(60, 1)
	tunedGame := games.BiasedColocationGame(pc, pc)
	tuned := NewPairedWithSampler("tuned", tunedGame.QuantumValue(rng).QuantumSampler(1.0))
	untuned := NewQuantumPairedStrategy(1.0, rng.Split(1))

	Run(cfg, tuned)
	Run(cfg, untuned)

	if tuned.ColocationStats().Rate() <= untuned.ColocationStats().Rate() {
		t.Fatalf("tuned %v not above untuned %v on the biased mix",
			tuned.ColocationStats().Rate(), untuned.ColocationStats().Rate())
	}
	// The tuned rate should approach the biased game's quantum value.
	want := tunedGame.QuantumValue(rng).Value
	if math.Abs(tuned.ColocationStats().Rate()-want) > 0.015 {
		t.Fatalf("tuned colocation %v, game value %v", tuned.ColocationStats().Rate(), want)
	}
}
