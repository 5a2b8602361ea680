package qkd

import (
	"math"

	"repro/internal/qsim"
	"repro/internal/xrand"
)

// measurePairOracle is the per-pair simulation pairTable.measure replaced,
// kept verbatim as its differential oracle: every pair rebuilds the Werner
// state, Eve's measurement collapses it through qsim's MeasureQubit, and the
// joint outcome is drawn by SampleOutcomes from freshly built bases. It is
// the definition of which floats a round compares against and which draws it
// consumes, in which order.
func measurePairOracle(cfg Config, ai, bi int, rng *xrand.RNG) (a, b int) {
	if cfg.Eve == nil {
		// No interception: sample from the Werner state directly.
		d := qsim.Werner(cfg.Visibility)
		o := d.SampleOutcomes([]qsim.Basis{
			qsim.RotatedReal(aliceAngles[ai]),
			qsim.RotatedReal(bobAngles[bi]),
		}, rng)
		return o >> 1 & 1, o & 1
	}
	// Intercept-resend: Eve measures Bob's qubit first, collapsing the
	// state; Alice and Bob then measure the (now separable) remainder.
	// Channel noise is applied before Eve touches the qubit.
	d := qsim.Werner(cfg.Visibility)
	eveBasis := qsim.RotatedReal(cfg.Eve.Bases[rng.IntN(len(cfg.Eve.Bases))])
	_, post := d.MeasureQubit(1, eveBasis, rng)
	o := post.SampleOutcomes([]qsim.Basis{
		qsim.RotatedReal(aliceAngles[ai]),
		qsim.RotatedReal(bobAngles[bi]),
	}, rng)
	return o >> 1 & 1, o & 1
}

// runOracle is Run with every pair simulated from scratch.
func runOracle(cfg Config) Result {
	return run(cfg, func(ai, bi int, rng *xrand.RNG) (int, int) {
		return measurePairOracle(cfg, ai, bi, rng)
	})
}

// DefaultConfig returns a 20k-round noiseless session aborting at S ≤ 2.
func DefaultConfig() Config {
	return Config{Rounds: 20000, Visibility: 1.0, AbortS: 2.0, Seed: 1}
}

// ExpectedS returns the no-interception CHSH estimate: 2√2·V.
func ExpectedS(visibility float64) float64 { return 2 * math.Sqrt2 * visibility }
