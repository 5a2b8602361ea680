package games

import (
	"math"

	"repro/internal/xrand"
)

// Checks and adapters only tests use.

// VerifyBehaviorNoSignaling checks that a behavior's marginals are
// input-independent — every physical strategy must pass. Returns the largest
// violation found.
func VerifyBehaviorNoSignaling(p [][][][]float64) float64 {
	var worst float64
	na := len(p)
	if na == 0 {
		return 0
	}
	nb := len(p[0])
	// Alice's marginal must not depend on y.
	for x := 0; x < na; x++ {
		for a := 0; a < 2; a++ {
			ref := p[x][0][a][0] + p[x][0][a][1]
			for y := 1; y < nb; y++ {
				m := p[x][y][a][0] + p[x][y][a][1]
				if d := math.Abs(m - ref); d > worst {
					worst = d
				}
			}
		}
	}
	// Bob's marginal must not depend on x.
	for y := 0; y < nb; y++ {
		for b := 0; b < 2; b++ {
			ref := p[0][y][0][b] + p[0][y][1][b]
			for x := 1; x < na; x++ {
				m := p[x][y][0][b] + p[x][y][1][b]
				if d := math.Abs(m - ref); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// Sampler returns a physical sampler playing the realization on a Werner
// state (fresh pair per round).
func (pr PlanarRealization) Sampler(visibility float64, rng *xrand.RNG) *BellSampler {
	return NewBellSampler(CHSHAngles{ThetaA: pr.AnglesA, ThetaB: pr.AnglesB}, visibility, rng)
}
