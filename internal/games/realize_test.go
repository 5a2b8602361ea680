package games

import (
	"math"
	"testing"

	"repro/internal/qsim"
	"repro/internal/xrand"
)

func TestQuantumValueRank1IsClassical(t *testing.T) {
	// Rank-1 unit vectors are ±1 scalars: exactly the classical strategies.
	rng := xrand.New(70, 1)
	g := NewCHSH()
	q1 := g.QuantumValueRank(rng, 1)
	if math.Abs(q1.Value-0.75) > 1e-9 {
		t.Fatalf("rank-1 value %v, want classical 0.75", q1.Value)
	}
}

func TestQuantumValueRank2ReachesCHSHOptimum(t *testing.T) {
	rng := xrand.New(71, 1)
	q2 := NewCHSH().QuantumValueRank(rng, 2)
	if math.Abs(q2.Value-chshQuantum) > 1e-7 {
		t.Fatalf("rank-2 value %v, want %v", q2.Value, chshQuantum)
	}
}

func TestQuantumValueMonotoneInRank(t *testing.T) {
	rng := xrand.New(72, 1)
	for trial := 0; trial < 8; trial++ {
		g := RandomGraphXORGame(5, 0.5, rng)
		v1 := g.QuantumValueRank(rng, 1).Value
		v2 := g.QuantumValueRank(rng, 2).Value
		vf := g.QuantumValue(rng).Value
		// Allow tiny slack for local-optimum shortfall at low rank.
		if v2 < v1-1e-6 || vf < v2-1e-6 {
			t.Fatalf("rank sweep not monotone: %v %v %v", v1, v2, vf)
		}
	}
}

func TestRankOnePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCHSH().QuantumValueRank(xrand.New(1, 1), 0)
}

// TestPlanarRealizationAttainsVectorBias is the physical cross-check: the
// angle construction on an actual Werner(1) state attains the rank-2
// vector bias exactly (Born rule, no sampling).
func TestPlanarRealizationAttainsVectorBias(t *testing.T) {
	rng := xrand.New(73, 1)
	for _, g := range []*XORGame{NewCHSH(), NewColocationCHSH()} {
		pr, q2 := g.PlanarRealize(rng)
		phys := g.ValueOn(qsim.Werner(1.0), CHSHAngles{ThetaA: pr.AnglesA, ThetaB: pr.AnglesB})
		if math.Abs(phys-q2.Value) > 1e-9 {
			t.Fatalf("%s: physical value %v != vector value %v", g.Name, phys, q2.Value)
		}
		if math.Abs(phys-chshQuantum) > 1e-7 {
			t.Fatalf("%s: planar realization %v should hit cos²(π/8)", g.Name, phys)
		}
	}
}

func TestPlanarRealizationRandomGraphGames(t *testing.T) {
	rng := xrand.New(74, 1)
	for trial := 0; trial < 6; trial++ {
		g := RandomGraphXORGame(4, 0.5, rng)
		pr, q2 := g.PlanarRealize(rng)
		phys := g.ValueOn(qsim.Werner(1.0), CHSHAngles{ThetaA: pr.AnglesA, ThetaB: pr.AnglesB})
		if math.Abs(phys-q2.Value) > 1e-9 {
			t.Fatalf("trial %d: physical %v != vector %v", trial, phys, q2.Value)
		}
		// The Bell-pair realization can never beat the full quantum value.
		full := g.QuantumValue(rng)
		if phys > full.Value+1e-7 {
			t.Fatalf("planar %v exceeds full quantum value %v", phys, full.Value)
		}
	}
}

func TestPlanarSamplerPlaysTheGame(t *testing.T) {
	rng := xrand.New(75, 1)
	g := NewCHSH()
	pr, _ := g.PlanarRealize(rng)
	s := pr.Sampler(1.0, rng)
	wins := 0
	const rounds = 60000
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		if g.Wins(x, y, a, b) {
			wins++
		}
	}
	rate := float64(wins) / rounds
	if math.Abs(rate-chshQuantum) > 0.01 {
		t.Fatalf("sampled planar rate %v", rate)
	}
}

func BenchmarkPlanarRealizeK5(b *testing.B) {
	rng := xrand.New(1, 20)
	g := RandomGraphXORGame(5, 0.5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PlanarRealize(rng)
	}
}
