package games

import (
	"repro/internal/qsim"
	"repro/internal/xrand"
)

// The per-sample bodies the qsim.OutcomeTable samplers replaced, kept
// verbatim as their differential oracles: each rebuilds its state (or, for
// the Bell sampler, its projectors and products) on every call and draws
// through SampleOutcomes. They define which floats a round compares against
// and how many draws it consumes.

// leaderElectionOracle is one W-state election round from scratch.
func leaderElectionOracle(n int, rng *xrand.RNG) int {
	state := qsim.W(n)
	bases := make([]qsim.Basis, n)
	for i := range bases {
		bases[i] = qsim.Computational()
	}
	outcome := state.SampleOutcomes(bases, rng)
	for p := 0; p < n; p++ {
		if outcome>>(n-1-p)&1 == 1 {
			return p
		}
	}
	panic("games: W state produced no excitation — simulator bug")
}

// classicalLeaderElectionOracle is the private-coin round with the float
// Bernoulli draw per party.
func classicalLeaderElectionOracle(n int, rng *xrand.RNG) (leader int, ok bool) {
	leader = -1
	claims := 0
	for p := 0; p < n; p++ {
		if rng.Float64() < 1/float64(n) {
			claims++
			leader = p
		}
	}
	return leader, claims == 1
}

// runLeaderElectionOracle is RunLeaderElection's per-round loop.
func runLeaderElectionOracle(n, rounds int, rng *xrand.RNG) (leaders []int, classicalWins int) {
	for r := 0; r < rounds; r++ {
		leaders = append(leaders, leaderElectionOracle(n, rng))
		if _, ok := classicalLeaderElectionOracle(n, rng); ok {
			classicalWins++
		}
	}
	return leaders, classicalWins
}

// bellSampleOracle is BellSampler.Sample with the state kept and the four
// Kron + Mul + Trace redone per call.
func bellSampleOracle(angles CHSHAngles, state *qsim.Density, x, y int, rng *xrand.RNG) (a, b int) {
	bases := []qsim.Basis{
		qsim.RotatedReal(angles.ThetaA[x]),
		qsim.RotatedReal(angles.ThetaB[y]),
	}
	o := state.SampleOutcomes(bases, rng)
	a = o >> 1 & 1
	b = o & 1
	if angles.FlipB {
		b = 1 - b
	}
	return a, b
}

// ghzSampleOracle is GHZSampler.Sample with a fresh GHZ state per call.
func ghzSampleOracle(players, joint int, rng *xrand.RNG) int {
	xBasis, yBasis := qsim.Hadamard(), yEigenBasis()
	state := qsim.GHZ(players)
	bases := make([]qsim.Basis, players)
	for p := 0; p < players; p++ {
		if joint>>(players-1-p)&1 == 1 {
			bases[p] = yBasis
		} else {
			bases[p] = xBasis
		}
	}
	return state.SampleOutcomes(bases, rng)
}
