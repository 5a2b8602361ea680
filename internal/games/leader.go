package games

import (
	"math"

	"repro/internal/qsim"
	"repro/internal/xrand"
)

// Leader election — one of the "many more primitives" the paper's
// conclusion predicts beyond XOR games. Setting: n ANONYMOUS parties (no
// identities, no pre-shared classical data — e.g. freshly booted identical
// replicas) must elect exactly one leader with zero communication.
//
//   - Classically each party can only flip a private coin with some
//     probability p of claiming leadership; by symmetry every party must
//     use the same p, so P(exactly one leader) = n·p·(1−p)^{n−1}, maximized
//     at p = 1/n: (1−1/n)^{n−1} → 1/e ≈ 0.368. Rounds without a unique
//     leader must be retried.
//   - Sharing an n-party W state and measuring in the computational basis
//     elects EXACTLY ONE leader with certainty, uniformly at random — the
//     state has exactly one excitation, and measurement just reveals where
//     it landed.
//
// The honest caveat (stated here because the repository's job is fidelity,
// not hype): parties with identities and pre-shared classical randomness
// can elect a leader classically with certainty too. The quantum advantage
// is specifically for the anonymous/symmetric setting — which is also the
// setting where the W state's perfect fairness matters.

// ClassicalLeaderElectionValue returns the best success probability of a
// symmetric private-coin strategy for n parties: (1−1/n)^{n−1}.
func ClassicalLeaderElectionValue(n int) float64 {
	if n < 1 {
		panic("games: need at least one party")
	}
	if n == 1 {
		return 1
	}
	return math.Pow(1-1/float64(n), float64(n-1))
}

// wElectionTable is the W(n) election measured once: every party measures in
// the computational basis, so the whole protocol is one distribution.
func wElectionTable(n int) *qsim.OutcomeTable {
	bases := make([][]qsim.Basis, n)
	for i := range bases {
		bases[i] = []qsim.Basis{qsim.Computational()}
	}
	return qsim.W(n).OutcomeTable(bases...)
}

func electLeader(w *qsim.OutcomeTable, n int, rng *xrand.RNG) int {
	outcome := w.Sample(0, rng)
	for p := 0; p < n; p++ {
		if outcome>>(n-1-p)&1 == 1 {
			return p
		}
	}
	panic("games: W state produced no excitation — simulator bug")
}

// ClassicalLeaderElection runs one symmetric private-coin round with the
// optimal p = 1/n: each party claims with that probability. It returns the
// leader index and ok = true only when exactly one party claimed.
func ClassicalLeaderElection(n int, rng *xrand.RNG) (leader int, ok bool) {
	leader = -1
	claims := 0
	for p := 0; p < n; p++ {
		if rng.Bool(1 / float64(n)) {
			claims++
			leader = p
		}
	}
	return leader, claims == 1
}

// LeaderElectionStats summarizes a trial run of both protocols.
type LeaderElectionStats struct {
	N                int
	Rounds           int
	QuantumSuccess   float64 // always 1 (asserted by tests)
	ClassicalSuccess float64 // ≈ (1−1/n)^{n−1}
	// QuantumFairness is the total-variation distance of the elected-leader
	// distribution from uniform (0 = perfectly fair).
	QuantumFairness float64
}

// RunLeaderElection measures both protocols over the given rounds.
func RunLeaderElection(n, rounds int, rng *xrand.RNG) LeaderElectionStats {
	st := LeaderElectionStats{N: n, Rounds: rounds}
	counts := make([]float64, n)
	qWins, cWins := 0, 0
	w := wElectionTable(n)
	for r := 0; r < rounds; r++ {
		leader := electLeader(w, n, rng)
		counts[leader]++
		qWins++
		if _, ok := ClassicalLeaderElection(n, rng); ok {
			cWins++
		}
	}
	st.QuantumSuccess = float64(qWins) / float64(rounds)
	st.ClassicalSuccess = float64(cWins) / float64(rounds)
	var tv float64
	for _, c := range counts {
		tv += math.Abs(c/float64(rounds) - 1/float64(n))
	}
	st.QuantumFairness = tv / 2
	return st
}
