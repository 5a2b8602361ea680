package games

import (
	"math"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// Bell certification: before a deployment trusts its QNICs, it should verify
// the delivered pairs actually violate a Bell inequality — the §3 hardware
// discussion descends directly from fifty years of such tests. This file
// estimates the CHSH S-value of any JointSampler:
//
//	S = E(0,0) + E(0,1) + E(1,0) − E(1,1),  E(x,y) = ⟨(−1)^{a⊕b}⟩
//
// Classical (local hidden variable) bound: |S| ≤ 2. Quantum (Tsirelson)
// bound: |S| ≤ 2√2 ≈ 2.828. Measuring S > 2 with confidence certifies that
// the boxes share entanglement — no classical substrate can fake it.

// CHSHCertificate is the result of a certification run.
type CHSHCertificate struct {
	// S is the estimated CHSH value.
	S float64
	// SE is the standard error of S.
	SE float64
	// Correlators holds the four E(x,y) estimates.
	Correlators [2][2]stats.Welford
	// Rounds per (x, y) setting.
	RoundsPerSetting int
}

// ClassicalBound is the local-hidden-variable limit on |S|.
const ClassicalBound = 2.0

// TsirelsonBound is the quantum limit on |S|.
const TsirelsonBound = 2 * math.Sqrt2

// CertifyCHSH drives the sampler with each of the four CHSH settings
// roundsPerSetting times and estimates S. The sampler is treated as a black
// box — exactly how a real certification run treats hardware.
func CertifyCHSH(s JointSampler, roundsPerSetting int, rng *xrand.RNG) CHSHCertificate {
	cert := CHSHCertificate{RoundsPerSetting: roundsPerSetting}
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			for r := 0; r < roundsPerSetting; r++ {
				a, b := s.Sample(x, y, rng)
				corr := 1.0
				if (a^b)&1 == 1 {
					corr = -1
				}
				cert.Correlators[x][y].Add(corr)
			}
		}
	}
	signs := [2][2]float64{{1, 1}, {1, -1}}
	var variance float64
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			cert.S += signs[x][y] * cert.Correlators[x][y].Mean()
			se := cert.Correlators[x][y].StdErr()
			variance += se * se
		}
	}
	cert.SE = math.Sqrt(variance)
	return cert
}

// ViolatesClassicalBound reports whether S exceeds 2 by at least z standard
// errors — the certification verdict.
func (c CHSHCertificate) ViolatesClassicalBound(z float64) bool {
	return c.S-z*c.SE > ClassicalBound
}

// WithinTsirelson reports whether S is consistent with quantum mechanics
// (≤ 2√2 within z standard errors). A violation indicates a broken
// simulator or super-quantum (PR-box) correlations.
func (c CHSHCertificate) WithinTsirelson(z float64) bool {
	return c.S-z*c.SE <= TsirelsonBound
}
