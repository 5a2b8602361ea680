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

// pushTask queues t on server 0 of w as arriving in the given slot.
func pushTask(w *World, t workload.Task, slot int) {
	w.push(0, rec{meta: packTask(t), arrival: int32(slot)})
}

// serveSlot applies one slot of d to server 0 of w and returns what it
// served, in order.
func serveSlot(w *World, d Discipline) []rec {
	first, second, n := w.serve(0, d)
	return []rec{first, second}[:n]
}

func TestServerDisciplineBatchCFirst(t *testing.T) {
	w := NewWorld(1)
	pushTask(w, workload.Task{Type: workload.TypeE}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	served := serveSlot(w, BatchCFirst)
	if len(served) != 2 {
		t.Fatalf("served %d tasks, want 2 (C batch)", len(served))
	}
	for _, r := range served {
		if r.task().Type != workload.TypeC {
			t.Fatal("batch must be type-C")
		}
	}
	// Only the E remains; next slot serves it alone.
	served = serveSlot(w, BatchCFirst)
	if len(served) != 1 || served[0].task().Type != workload.TypeE {
		t.Fatalf("second slot served %v", served)
	}
	if w.QueueLen(0) != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestServerDisciplineSingleC(t *testing.T) {
	w := NewWorld(1)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	if got := serveSlot(w, SingleCFirst); len(got) != 1 {
		t.Fatalf("SingleCFirst served %d", len(got))
	}
}

func TestServerDisciplineFIFOBatch(t *testing.T) {
	w := NewWorld(1)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	pushTask(w, workload.Task{Type: workload.TypeE}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	got := serveSlot(w, FIFOBatch)
	if len(got) != 2 || got[0].task().Type != workload.TypeC || got[1].task().Type != workload.TypeC {
		t.Fatalf("FIFOBatch head-C should pull the next C: %v", got)
	}
	// E head rides alone.
	got = serveSlot(w, FIFOBatch)
	if len(got) != 1 || got[0].task().Type != workload.TypeE {
		t.Fatalf("FIFOBatch E head: %v", got)
	}
}

func TestServerDisciplineEFirst(t *testing.T) {
	w := NewWorld(1)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC}, 0)
	pushTask(w, workload.Task{Type: workload.TypeE}, 0)
	got := serveSlot(w, EFirst)
	if len(got) != 1 || got[0].task().Type != workload.TypeE {
		t.Fatalf("EFirst should serve the E: %v", got)
	}
	got = serveSlot(w, EFirst)
	if len(got) != 2 {
		t.Fatalf("EFirst with no E serves the C batch: %v", got)
	}
}

func TestServeEmpty(t *testing.T) {
	w := NewWorld(1)
	for d := BatchCFirst; d <= BatchSameClassC; d++ {
		if got := serveSlot(w, d); len(got) != 0 {
			t.Fatalf("%v on empty queue served %v", d, got)
		}
	}
}

// TestServerQueueBookkeeping drives the two per-type FIFOs through pushes,
// out-of-arrival-order serves and strict-order drains, checking the queue
// length and the type counts the disciplines branch on.
func TestServerQueueBookkeeping(t *testing.T) {
	w := NewWorld(1)
	lens := func() (int, int, int) {
		return w.QueueLen(0), w.numOfType(0, workload.TypeC), w.numOfType(0, workload.TypeE)
	}
	for i := 0; i < 5; i++ {
		typ := workload.TypeE
		if i%2 == 1 {
			typ = workload.TypeC
		}
		pushTask(w, workload.Task{Type: typ}, i)
	}
	// Queue: E0 C1 E2 C3 E4 — numC = 2.
	if n, c, e := lens(); n != 5 || c != 2 || e != 3 {
		t.Fatalf("Len=%d numC=%d numE=%d", n, c, e)
	}
	// Serving the first C from behind an E preserves the arrival order of the
	// rest: a strict-order drain then sees 0, 2, 3, 4 (C3 finds no partner).
	if got := serveSlot(w, SingleCFirst); len(got) != 1 || got[0].arrival != 1 {
		t.Fatalf("first C served %v, want slot 1", got)
	}
	if n, c, _ := lens(); n != 4 || c != 1 {
		t.Fatalf("after one C: Len=%d numC=%d, want 4/1", n, c)
	}
	for _, want := range []int32{0, 2, 3, 4} {
		if got := serveSlot(w, FIFOBatch); len(got) != 1 || got[0].arrival != want {
			t.Fatalf("strict-order serve got %v, want slot %d", got, want)
		}
	}
	if n, c, _ := lens(); n != 0 || c != 0 {
		t.Fatalf("queue not empty after draining: Len=%d numC=%d", n, c)
	}
	// Interleave pushes and serves long enough to wrap and grow the ring.
	for i := 0; i < 1000; i++ {
		pushTask(w, workload.Task{Type: workload.TypeC}, i)
		if i%2 == 1 {
			if got := serveSlot(w, SingleCFirst); len(got) != 1 || int(got[0].arrival) != i/2 {
				t.Fatalf("churn serve %d got %v, want slot %d", i, got, i/2)
			}
		}
	}
	if n, c, _ := lens(); n != 500 || c != 500 {
		t.Fatalf("after churn: Len=%d numC=%d, want 500/500", n, c)
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
	classical := SweepLoad(base, func() Strategy { return RandomStrategy{} }, loads, 0)
	quantum := SweepLoad(base, func() Strategy { return NewQuantumPairedStrategy(1.0, xrand.New(4, 4)) }, loads, 0)
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
	s := SweepLoad(base, func() Strategy { return RandomStrategy{} }, []float64{0.5, 1.0}, 0)
	if s.Name != "classical-random" || s.Len() != 2 {
		t.Fatalf("series %+v", s)
	}
	_, d := SweepBoth(base, func() Strategy { return RandomStrategy{} }, []float64{0.5, 1.0}, 0)
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
	tuned := &PairedStrategy{name: "tuned", sampler: tunedGame.QuantumValue(rng).QuantumSampler(1.0)}
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
