package games

import (
	"math"

	"repro/internal/xrand"
)

// This file turns abstract XOR-game vector solutions into physically
// realizable measurement strategies. Tsirelson's theorem guarantees any
// vector solution is realizable with enough entangled qubits (the paper
// quotes the 2^#vertices dimensionality bound); when the optimal vectors
// fit in a PLANE — always true for CHSH, and common for small graph games —
// a single Bell pair with real rotated bases suffices:
//
//	for Φ+ measured at real angles θA, θB the correlator is cos 2(θA−θB),
//	so planar vectors at angles α_x, β_y are realized by θA = α_x/2,
//	θB = β_y/2.
//
// The rank-restricted solver below also powers the rank ablation from
// DESIGN.md: rank 1 forces ±1 scalars (exactly the classical strategies),
// so sweeping rank 1 → 2 → full shows where the quantum gap opens.

// QuantumValueRank computes the best XOR-game bias achievable with vectors
// of the given rank (dimension). rank 1 recovers the classical optimum
// (coordinate ascent over signs with restarts); rank ≥ NA+NB is the full
// Tsirelson value. Higher rank can only help, so the result is monotone in
// rank (verified in tests).
//
// Rank-restricted and full-rank solves are the same kernel
// (quantumValueUncached) at a different dimension and restart count;
// TestQuantumValueRankMatchesJaggedOracle pins it bit for bit against the
// jagged solver this method used to run.
func (g *XORGame) QuantumValueRank(rng *xrand.RNG, rank int) QuantumResult {
	if rank < 1 {
		panic("games: rank must be at least 1")
	}
	// Low-rank landscapes have more local maxima; spend more restarts.
	restarts := fullRankRestarts
	if rank < g.NA+g.NB {
		restarts = 24
	}
	return g.quantumValueUncached(rng, rank, restarts)
}

// PlanarRealization is a Bell-pair measurement strategy: party A measures
// at AnglesA[x] on input x, party B at AnglesB[y], both on a shared Φ+.
type PlanarRealization struct {
	AnglesA, AnglesB []float64
}

// PlanarRealize computes the best rank-2 strategy for the game and returns
// its physical realization together with the bias it achieves. If the
// game's full quantum value needs more than two dimensions, the returned
// realization is simply the best Bell-pair strategy (the achievable bias is
// reported so callers can compare against QuantumValue and decide whether
// one pair is enough — for CHSH-sized games it always is).
func (g *XORGame) PlanarRealize(rng *xrand.RNG) (PlanarRealization, QuantumResult) {
	q2 := g.QuantumValueRank(rng, 2)
	pr := PlanarRealization{
		AnglesA: make([]float64, g.NA),
		AnglesB: make([]float64, g.NB),
	}
	for x, u := range q2.U {
		pr.AnglesA[x] = math.Atan2(u[1], u[0]) / 2
	}
	for y, v := range q2.V {
		pr.AnglesB[y] = math.Atan2(v[1], v[0]) / 2
	}
	return pr, q2
}

// ExactValue scores the realization on the game with a Werner state of the
// given visibility, via the exact Born rule — the physical cross-check that
// the angle construction really attains the vector bias.
func (pr PlanarRealization) ExactValue(g *XORGame, visibility float64) float64 {
	gg := FromXOR(g)
	return gg.ExactBellValue(pr.AnglesA, pr.AnglesB, visibility)
}

// Sampler returns a physical sampler playing the realization on a Werner
// state (fresh pair per round).
func (pr PlanarRealization) Sampler(visibility float64, rng *xrand.RNG) *BellSampler {
	return NewBellSampler(CHSHAngles{ThetaA: pr.AnglesA, ThetaB: pr.AnglesB}, visibility, rng)
}
