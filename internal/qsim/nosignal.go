package qsim

import (
	"math"
)

// This file holds the marginal and distance helpers behind the no-signaling
// principle (checked by NoSignalingViolation in the package's tests) — the
// physical law the whole paper leans on: measurement choices at one site cannot change the outcome
// statistics at another, which is why entanglement gives "faster-than-light
// correlation while still respecting causality".

// MarginalDistribution returns the distribution of the outcomes of the
// qubits listed in `of` when every qubit k is measured in bases[k]. Bit b of
// the returned index corresponds to of[b] (most significant first).
func MarginalDistribution(dist []float64, numQubits int, of []int) []float64 {
	out := make([]float64, 1<<len(of))
	for full, p := range dist {
		idx := 0
		for b, q := range of {
			bit := (full >> (numQubits - 1 - q)) & 1
			idx |= bit << (len(of) - 1 - b)
		}
		out[idx] += p
	}
	return out
}

// TotalVariation returns the total-variation distance between two
// distributions of equal length.
func TotalVariation(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("qsim: TotalVariation length mismatch")
	}
	var tv float64
	for i := range p {
		tv += math.Abs(p[i] - q[i])
	}
	return tv / 2
}
