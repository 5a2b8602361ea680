package ecmp

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/qsim"
	"repro/internal/xrand"
)

// This file carries the exact side of §4.2: the classical optimum by
// enumeration, the pigeonhole lower bound that any strategy — classical or
// quantum — must respect, and a quantum search that numerically supports
// the paper's conjecture by failing (as it must) to beat the bound.

// pairActiveProb returns the probability a specific pair of switches is
// simultaneously active when exactly k of n are activated uniformly:
// C(n−2, k−2)/C(n, k) = k(k−1)/(n(n−1)).
func pairActiveProb(n, k int) float64 {
	if k < 2 {
		return 0
	}
	return float64(k*(k-1)) / float64(n*(n-1))
}

// MinMonochromaticPairs returns the minimum number of same-path pairs over
// all assignments of n switches to m paths — achieved by the balanced
// partition (pigeonhole): with q = n/m and r = n mod m,
// r·C(q+1, 2) + (m−r)·C(q, 2).
func MinMonochromaticPairs(n, m int) int {
	q, r := n/m, n%m
	return r*(q+1)*q/2 + (m-r)*q*(q-1)/2
}

// ExactBestClassical returns the minimum expected number of colliding pairs
// per round achievable by ANY classical strategy (shared randomness
// included), with exactly k of n switches active uniformly at random and m
// paths.
//
// Derivation: a deterministic strategy is an assignment f: switches → paths
// (an inactive switch's choice is irrelevant, and an active switch learns
// nothing about the others, so per-switch randomization cannot beat the
// best deterministic assignment — expectation is linear and shared
// randomness is a mixture of deterministic assignments). Expected collisions
// = Σ_{f(i)=f(j)} P(i,j both active) = pairActiveProb · #monochromatic
// pairs, minimized by the balanced assignment.
func ExactBestClassical(n, m, k int) float64 {
	return pairActiveProb(n, k) * float64(MinMonochromaticPairs(n, m))
}

// QuantumCandidate is a fully general no-input quantum strategy for binary
// path choice: an arbitrary n-qubit pure state with an arbitrary per-switch
// measurement basis. (Since a switch's basis cannot depend on the active
// set, one basis per switch is fully general — this is exactly the paper's
// "lesson learned".)
type QuantumCandidate struct {
	State *qsim.State
	Bases []qsim.Basis
}

// RandomQuantumCandidate draws a Haar-ish random state and random bases.
func RandomQuantumCandidate(n int, rng *xrand.RNG) QuantumCandidate {
	amp := make([]complex128, 1<<n)
	for i := range amp {
		amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	bases := make([]qsim.Basis, n)
	for i := range bases {
		bases[i] = qsim.FromVector([]complex128{
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
		})
	}
	return QuantumCandidate{State: qsim.FromAmplitudes(amp), Bases: bases}
}

// GHZCandidate is the "obvious" attempt: share an n-party GHZ state and
// measure in per-switch rotated bases.
func GHZCandidate(n int, angles []float64) QuantumCandidate {
	bases := make([]qsim.Basis, n)
	for i := range bases {
		bases[i] = qsim.RotatedReal(angles[i])
	}
	return QuantumCandidate{State: qsim.GHZ(n), Bases: bases}
}

// ExpectedCollisions computes the candidate's exact expected colliding
// pairs per round (m = 2 paths, exactly k of n active) from the Born rule:
// Σ_{i<j} P(both active) · P(outcome_i = outcome_j).
func (qc QuantumCandidate) ExpectedCollisions(k int) float64 {
	n := qc.State.NumQubits
	dist := qc.State.OutcomeDistribution(qc.Bases)
	p2 := pairActiveProb(n, k)
	var total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pSame := 0.0
			for o, p := range dist {
				bi := o >> (n - 1 - i) & 1
				bj := o >> (n - 1 - j) & 1
				if bi == bj {
					pSame += p
				}
			}
			total += p2 * pSame
		}
	}
	return total
}

// QuantumSearchBestCollisions searches `trials` random quantum candidates
// (plus GHZ candidates with random angles) for the lowest expected
// collisions, supporting the conjecture numerically: the returned value can
// approach but never beat ExactBestClassical(n, 2, k). Candidates fan out
// over `workers` goroutines (<= 0 means GOMAXPROCS); trial t draws from its
// own stream derived from (one draw of rng, t), so the minimum is
// worker-count invariant.
func QuantumSearchBestCollisions(n, k, trials, workers int, rng *xrand.RNG) float64 {
	base := rng.Uint64()
	vals := parallel.MapN(workers, trials, func(t int) float64 {
		trng := xrand.Derive(base, uint64(t))
		var cand QuantumCandidate
		if t%2 == 0 {
			cand = RandomQuantumCandidate(n, trng)
		} else {
			angles := make([]float64, n)
			for i := range angles {
				angles[i] = trng.Float64() * math.Pi
			}
			cand = GHZCandidate(n, angles)
		}
		return cand.ExpectedCollisions(k)
	})
	return minOf(vals)
}

// minOf returns the smallest value (+Inf for an empty slice).
func minOf(vals []float64) float64 {
	best := math.Inf(1)
	for _, v := range vals {
		if v < best {
			best = v
		}
	}
	return best
}

// PigeonholeLowerBound is the universal bound both classical AND quantum
// strategies obey: every realization of the n outcome bits has at least
// MinMonochromaticPairs(n, m) same-path pairs, so by linearity every
// outcome distribution — including any Born-rule distribution — has
// expected collisions ≥ pairActiveProb · that count. This is the
// conjecture's no-input special case, proved.
func PigeonholeLowerBound(n, m, k int) float64 {
	return ExactBestClassical(n, m, k)
}
