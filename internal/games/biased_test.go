package games

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// advantageGap returns quantumValue − classicalValue for the game: the
// quantity whose bias sweep shows where an advantage survives.
func advantageGap(g *XORGame, rng *xrand.RNG) float64 {
	c := g.ClassicalValue()
	q := g.QuantumValue(rng)
	return q.Value - c.Value
}

func TestBiasedColocationRecoversCHSHAtHalf(t *testing.T) {
	g := BiasedColocationGame(0.5, 0.5)
	base := NewColocationCHSH()
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if math.Abs(g.Prob[x][y]-base.Prob[x][y]) > 1e-12 || g.Parity[x][y] != base.Parity[x][y] {
				t.Fatal("pA=pB=0.5 must recover the uniform colocation game")
			}
		}
	}
}

func TestBiasedGameValuesAtHalf(t *testing.T) {
	rng := xrand.New(90, 1)
	g := BiasedColocationGame(0.5, 0.5)
	if math.Abs(g.ClassicalValue().Value-0.75) > 1e-9 {
		t.Fatal("classical value at p=0.5 wrong")
	}
	if math.Abs(g.QuantumValue(rng).Value-chshQuantum) > 1e-7 {
		t.Fatal("quantum value at p=0.5 wrong")
	}
}

func TestBiasedExtremesAreClassicallyWinnable(t *testing.T) {
	rng := xrand.New(91, 1)
	// pA = pB = 1: the only input is (1,1), needing a ⊕ b = 0 — trivially
	// winnable classically; no quantum gap.
	g1 := BiasedColocationGame(1, 1)
	if math.Abs(g1.ClassicalValue().Value-1) > 1e-9 {
		t.Fatalf("all-C classical value %v", g1.ClassicalValue().Value)
	}
	if advantageGap(g1, rng) > 1e-7 {
		t.Fatal("no gap possible at classical value 1")
	}
	// pA = pB = 0: only input (0,0), needing a ⊕ b = 1 — also trivial.
	g0 := BiasedColocationGame(0, 0)
	if math.Abs(g0.ClassicalValue().Value-1) > 1e-9 {
		t.Fatalf("all-E classical value %v", g0.ClassicalValue().Value)
	}
}

// TestBiasedAdvantageWindow sweeps the symmetric bias: the quantum gap is
// maximal at p = 0.5 and shrinks toward the extremes, vanishing near them —
// the biased-games phenomenon from the literature.
func TestBiasedAdvantageWindow(t *testing.T) {
	rng := xrand.New(92, 1)
	gap := func(p float64) float64 {
		return advantageGap(BiasedColocationGame(p, p), rng)
	}
	gHalf := gap(0.5)
	if math.Abs(gHalf-(chshQuantum-0.75)) > 1e-6 {
		t.Fatalf("gap at 0.5 = %v", gHalf)
	}
	if g3 := gap(0.3); g3 >= gHalf || g3 < 0 {
		t.Fatalf("gap at 0.3 = %v should be in (0, %v)", g3, gHalf)
	}
	if g05 := gap(0.05); g05 > gap(0.3) {
		t.Fatalf("gap should keep shrinking toward the extreme: %v > %v", g05, gap(0.3))
	}
	// Quantum never falls below classical anywhere in the sweep.
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		if gap(p) < -1e-7 {
			t.Fatalf("negative gap at p=%v", p)
		}
	}
}

func TestBiasedAsymmetric(t *testing.T) {
	rng := xrand.New(93, 1)
	g := BiasedColocationGame(0.8, 0.2)
	// Probabilities form a valid product distribution.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Prob[1][0]-0.8*0.8) > 1e-12 {
		t.Fatalf("P(x=1,y=0) = %v, want 0.64", g.Prob[1][0])
	}
	// Values sane.
	c := g.ClassicalValue()
	q := g.QuantumValue(rng)
	if q.Value < c.Value-1e-9 || q.Value > 1 {
		t.Fatalf("values out of order: c=%v q=%v", c.Value, q.Value)
	}
}

func TestBiasedProbabilityRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BiasedColocationGame(1.2, 0.5)
}

// TestTunedStrategyBeatsUntunedOnBiasedWorkload: playing the optimal
// strategy FOR THE ACTUAL MIX wins more often than playing the uniform-mix
// strategy — the systems payoff of modeling the bias.
func TestTunedStrategyBeatsUntunedOnBiasedWorkload(t *testing.T) {
	rng := xrand.New(95, 1)
	const p = 0.15
	biased := BiasedColocationGame(p, p)

	tuned := biased.QuantumValue(rng)
	untuned := NewColocationCHSH().QuantumValue(rng)

	// Evaluate BOTH behaviors against the BIASED input distribution.
	tunedVal := biased.Value(tuned.QuantumSampler(1.0).Behavior(2, 2))
	untunedVal := biased.Value(untuned.QuantumSampler(1.0).Behavior(2, 2))
	if tunedVal < untunedVal-1e-9 {
		t.Fatalf("tuned %v worse than untuned %v", tunedVal, untunedVal)
	}
	if tunedVal-untunedVal < 0.001 {
		t.Fatalf("tuning gain %v suspiciously small at p=%v", tunedVal-untunedVal, p)
	}
}

func BenchmarkBiasedGameSolve(b *testing.B) {
	rng := xrand.New(1, 22)
	for i := 0; i < b.N; i++ {
		BiasedColocationGame(0.3, 0.3).QuantumValue(rng)
	}
}
