package loadbalance

import (
	"math"
	"testing"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// threeClassSetup is the paper's "multiple subtypes of type-C tasks that do
// not like being mixed": one exclusive class plus two caching classes that
// each want colocation only with themselves. This game has a genuine
// quantum gap (≈ 0.778 classical vs ≈ 0.833 quantum); note that not every
// class structure does — e.g. the uniform E,E,C,C game is classically
// optimal — which is itself a finding the tests document.
func threeClassSetup() (*games.XORGame, workload.MultiClass) {
	kinds := []games.ClassKind{games.KindExclusive, games.KindCaching, games.KindCaching}
	weights := []float64{1, 1, 1}
	game := games.MultiClassColocationGame(kinds, weights)
	wl := workload.MultiClass{
		Weights:    weights,
		ClassTypes: []workload.TaskType{workload.TypeE, workload.TypeC, workload.TypeC},
	}
	return game, wl
}

func TestMultiClassGameReducesToColocationCHSH(t *testing.T) {
	g := games.MultiClassColocationGame(games.TwoClassKinds(), []float64{1, 1})
	base := games.NewColocationCHSH()
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if g.Parity[x][y] != base.Parity[x][y] {
				t.Fatalf("parity(%d,%d) = %d, want %d", x, y, g.Parity[x][y], base.Parity[x][y])
			}
			if math.Abs(g.Prob[x][y]-0.25) > 1e-12 {
				t.Fatalf("prob(%d,%d) = %v", x, y, g.Prob[x][y])
			}
		}
	}
}

func TestMultiClassGameValues(t *testing.T) {
	rng := xrand.New(100, 1)
	game, _ := threeClassSetup()
	c := game.ClassicalValue()
	q := game.QuantumValue(rng)
	// "Always split" wins every cell except (1,1) and (2,2): 7/9 ≈ 0.778.
	if math.Abs(c.Value-7.0/9) > 1e-9 {
		t.Fatalf("classical value %v, want 7/9", c.Value)
	}
	// The quantum gap is real for this structure (≈ 0.0556).
	if q.Value-c.Value < 0.05 {
		t.Fatalf("quantum gap %v too small; expected ≈ 0.0556", q.Value-c.Value)
	}
}

// TestMultiClassUniformEECCHasNoGap documents the negative case: the
// uniform two-exclusive/two-caching game is classically optimal — not every
// affinity structure benefits from entanglement, and a deployment should
// compute the gap before provisioning pairs.
func TestMultiClassUniformEECCHasNoGap(t *testing.T) {
	rng := xrand.New(108, 1)
	kinds := []games.ClassKind{games.KindExclusive, games.KindExclusive, games.KindCaching, games.KindCaching}
	g := games.MultiClassColocationGame(kinds, []float64{1, 1, 1, 1})
	c := g.ClassicalValue()
	q := g.QuantumValue(rng)
	if q.Value > c.Value+1e-6 {
		t.Fatalf("EECC-uniform unexpectedly has a gap: %v vs %v", q.Value, c.Value)
	}
}

func TestGraphPairedStrategyRuns(t *testing.T) {
	rng := xrand.New(101, 1)
	game, wl := threeClassSetup()
	cfg := Config{
		NumBalancers: 40, NumServers: 36,
		Warmup: 300, Slots: 2500,
		Discipline: BatchSameClassC,
		Workload:   wl,
		Seed:       11,
	}
	q := NewGraphPairedStrategy(game, 1.0, rng)
	r := Run(cfg, q)
	if r.Served == 0 {
		t.Fatal("nothing served")
	}
	// The colocation success rate should match the game's quantum value.
	qv := game.QuantumValue(rng).Value
	if math.Abs(q.ColocationStats().Rate()-qv) > 0.02 {
		t.Fatalf("colocation rate %v, game value %v", q.ColocationStats().Rate(), qv)
	}
}

func TestGraphQuantumBeatsGraphClassical(t *testing.T) {
	rng := xrand.New(102, 1)
	game, wl := threeClassSetup()
	cfg := Config{
		NumBalancers: 40, NumServers: 36,
		Warmup: 300, Slots: 3000,
		Discipline: BatchSameClassC,
		Workload:   wl,
		Seed:       12,
	}
	q := NewGraphPairedStrategy(game, 1.0, rng)
	c := NewGraphClassicalStrategy(game)
	Run(cfg, q)
	Run(cfg, c)
	if q.ColocationStats().Rate() <= c.ColocationStats().Rate() {
		t.Fatalf("quantum colocation %v not above classical %v",
			q.ColocationStats().Rate(), c.ColocationStats().Rate())
	}
	// The game's quantum value is 5/6; the realized rate must be near it.
	if q.ColocationStats().Rate() < 0.8 {
		t.Fatalf("quantum colocation %v, want ≈ 0.833", q.ColocationStats().Rate())
	}
}

func TestGraphStrategyClassOutOfRangePanics(t *testing.T) {
	rng := xrand.New(103, 1)
	game := games.MultiClassColocationGame(games.TwoClassKinds(), []float64{1, 1})
	s := NewGraphPairedStrategy(game, 1.0, rng)
	cfg := Config{
		NumBalancers: 4, NumServers: 4,
		Warmup: 0, Slots: 5,
		Workload: workload.MultiClass{ // 3 classes but a 2-class game
			Weights:    []float64{1, 1, 1},
			ClassTypes: []workload.TaskType{workload.TypeE, workload.TypeC, workload.TypeC},
		},
		Seed: 1,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for class outside game alphabet")
		}
	}()
	Run(cfg, s)
}

func TestBatchSameClassCDiscipline(t *testing.T) {
	w := NewWorld(1)
	pushTask(w, workload.Task{Type: workload.TypeC, Class: 2}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC, Class: 3}, 0)
	pushTask(w, workload.Task{Type: workload.TypeC, Class: 2}, 0)
	got := serveSlot(w, BatchSameClassC)
	if len(got) != 2 || got[0].task().Class != 2 || got[1].task().Class != 2 {
		t.Fatalf("same-class batch wrong: %v", got)
	}
	// The lone class-3 C now rides alone.
	got = serveSlot(w, BatchSameClassC)
	if len(got) != 1 || got[0].task().Class != 3 {
		t.Fatalf("lone C should ride alone: %v", got)
	}
	// Empty and E-only behavior.
	w = NewWorld(1)
	pushTask(w, workload.Task{Type: workload.TypeE}, 0)
	if got := serveSlot(w, BatchSameClassC); len(got) != 1 {
		t.Fatalf("E should serve singly: %v", got)
	}
	if got := serveSlot(w, BatchSameClassC); len(got) != 0 {
		t.Fatal("empty queue should serve nothing")
	}
}

func TestSupplyLimitedFullSupplyMatchesIdeal(t *testing.T) {
	rng := xrand.New(104, 1)
	cfg := testConfig(1.0)
	s := NewSupplyLimitedStrategy(entangle.PerfectSupplier{Visibility: 1}, time.Millisecond, rng)
	Run(cfg, s)
	if s.QuantumFraction() != 1 {
		t.Fatalf("perfect supply should be all-quantum: %v", s.QuantumFraction())
	}
	if math.Abs(s.ColocationStats().Rate()-0.8535) > 0.02 {
		t.Fatalf("colocation rate %v", s.ColocationStats().Rate())
	}
}

func TestSupplyLimitedDrySupplyIsClassical(t *testing.T) {
	rng := xrand.New(105, 1)
	cfg := testConfig(1.0)
	s := NewSupplyLimitedStrategy(entangle.EmptySupplier{}, time.Millisecond, rng)
	Run(cfg, s)
	if s.QuantumFraction() != 0 {
		t.Fatal("empty supply must be all-fallback")
	}
	if math.Abs(s.ColocationStats().Rate()-0.75) > 0.02 {
		t.Fatalf("fallback colocation rate %v, want 0.75", s.ColocationStats().Rate())
	}
}

func TestSupplyLimitedHalfRate(t *testing.T) {
	rng := xrand.New(106, 1)
	cfg := testConfig(1.0)
	// Demand: NumBalancers/2 pair-rounds per slot = 20/ms at slot=1ms →
	// 20k pairs/s. Supply at half: 10k pairs/s.
	demand := float64(cfg.NumBalancers/2) * 1000
	sup := NewRatedSupplier(demand/2, 1.0, 64)
	s := NewSupplyLimitedStrategy(sup, time.Millisecond, rng)
	Run(cfg, s)
	if math.Abs(s.QuantumFraction()-0.5) > 0.05 {
		t.Fatalf("quantum fraction %v, want ~0.5 at half supply", s.QuantumFraction())
	}
	// Colocation rate interpolates midway between 0.75 and 0.8536.
	want := 0.5*0.8535533905932737 + 0.5*0.75
	if math.Abs(s.ColocationStats().Rate()-want) > 0.02 {
		t.Fatalf("colocation rate %v, want ≈ %v", s.ColocationStats().Rate(), want)
	}
}

func TestSupplyLimitedKneeBetweenClassicalAndIdeal(t *testing.T) {
	rng := xrand.New(107, 1)
	cfg := testConfig(1.05)
	demand := float64(cfg.NumBalancers/2) * 1000

	ideal := NewQuantumPairedStrategy(1.0, rng.Split(1))
	limited := NewSupplyLimitedStrategy(NewRatedSupplier(demand/2, 1.0, 64), time.Millisecond, rng.Split(2))
	classicalPaired := NewClassicalPairedStrategy()

	ri := Run(cfg, ideal)
	rl := Run(cfg, limited)
	rc := Run(cfg, classicalPaired)

	// The supply-limited run lands between the ideal quantum and the
	// classical-paired results (small tolerance for noise).
	if rl.QueueLen.Mean() < ri.QueueLen.Mean()-0.5 {
		t.Fatalf("limited %v cannot beat ideal %v", rl.QueueLen.Mean(), ri.QueueLen.Mean())
	}
	if rl.QueueLen.Mean() > rc.QueueLen.Mean()+1.0 {
		t.Fatalf("limited %v should not be worse than classical-paired %v by much",
			rl.QueueLen.Mean(), rc.QueueLen.Mean())
	}
}

func TestRatedSupplierAccrual(t *testing.T) {
	s := NewRatedSupplier(1000, 0.9, 10) // 1 pair per ms, cap 10
	// Starts pre-filled.
	for i := 0; i < 10; i++ {
		if _, ok := s.TryConsume(0); !ok {
			t.Fatalf("pre-filled buffer exhausted at %d", i)
		}
	}
	if _, ok := s.TryConsume(0); ok {
		t.Fatal("buffer should be empty")
	}
	// After 3 ms, 3 pairs accrued.
	n := 0
	for {
		if _, ok := s.TryConsume(3 * time.Millisecond); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("accrued %d pairs in 3ms at 1/ms, want 3", n)
	}
	// Cap binds after a long idle stretch.
	n = 0
	for {
		if _, ok := s.TryConsume(10 * time.Second); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("cap should bind at 10, got %d", n)
	}
}

func TestRatedSupplierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRatedSupplier(-1, 0.9, 10)
}
