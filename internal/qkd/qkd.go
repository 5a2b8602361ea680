// Package qkd implements Ekert-91 quantum key distribution — the
// entanglement application the paper twice points to as already established
// ("unconditionally secure quantum key distribution", refs [24, 45]) — on
// the same substrate as everything else in this repository: Bell pairs from
// the entangle source model, measurements through the exact simulator, and
// the CHSH machinery doubling as the eavesdropping test.
//
// Protocol sketch (E91 over Φ+):
//
//   - Per round, Alice picks a random angle from {0, π/8, π/4} and Bob from
//     {0, π/8, −π/8}; each measures their half of a shared pair.
//   - Rounds where both picked the SAME angle give perfectly correlated
//     bits → raw key material.
//   - Rounds with Alice ∈ {0, π/4} and Bob ∈ {π/8, −π/8} are exactly the
//     four CHSH settings → an S-value estimate.
//   - Anything that degrades the entanglement — noise or an eavesdropper,
//     which are physically indistinguishable — drags S below 2√2. If S
//     falls under the abort threshold the key is discarded: security
//     follows from the same Tsirelson-bound physics as the load-balancing
//     advantage.
package qkd

import (
	"fmt"
	"math"

	"repro/internal/qsim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Alice's and Bob's measurement angle sets. Index pairs (0,0) and (1,1)
// share an angle (key rounds); Alice {0, 2} × Bob {1, 2} are the CHSH
// settings.
var (
	aliceAngles = []float64{0, math.Pi / 8, math.Pi / 4}
	bobAngles   = []float64{0, math.Pi / 8, -math.Pi / 8}
)

// Eavesdropper models an intercept-resend attack: Eve measures Bob's qubit
// in flight in a random basis from her set and forwards the collapsed
// state. Any such attack breaks the entanglement the CHSH test checks for.
type Eavesdropper struct {
	// Bases Eve chooses among, uniformly. The classic attack uses
	// {0, π/4}.
	Bases []float64
}

// StandardEve returns the textbook intercept-resend attacker.
func StandardEve() *Eavesdropper {
	return &Eavesdropper{Bases: []float64{0, math.Pi / 4}}
}

// Config parametrizes a key-distribution session.
type Config struct {
	// Rounds is the number of distributed pairs to consume.
	Rounds int
	// Visibility is the delivered pairs' Werner visibility (channel noise).
	Visibility float64
	// Eve, when non-nil, intercepts every pair.
	Eve *Eavesdropper
	// AbortS is the CHSH threshold: abort if the estimated S (minus 3
	// standard errors) cannot exclude values ≤ AbortS. The textbook choice
	// is 2 (the classical bound); practical systems take margin above it.
	AbortS float64
	Seed   uint64
}

// Result summarizes a session.
type Result struct {
	// Key is Alice's sifted key; Bob's agrees except at QBER positions.
	Key []byte
	// KeyRounds, CHSHRounds and Discarded partition the rounds.
	KeyRounds, CHSHRounds, Discarded int
	// QBER is the quantum bit error rate measured over the key rounds
	// (fraction where Alice's and Bob's bits disagreed — in deployment
	// estimated by sacrificing a subset; the simulation sees all).
	QBER stats.Proportion
	// S is the CHSH estimate from the test rounds.
	S  float64
	SE float64
	// Aborted reports whether the S test failed (possible eavesdropper).
	Aborted bool
}

// Run executes the protocol.
func Run(cfg Config) Result {
	if cfg.Rounds <= 0 {
		panic("qkd: need positive rounds")
	}
	if cfg.Visibility < 0 || cfg.Visibility > 1 {
		panic("qkd: visibility out of [0,1]")
	}
	if cfg.Eve != nil && len(cfg.Eve.Bases) == 0 {
		panic("qkd: eavesdropper needs at least one basis")
	}
	return run(cfg, newPairTable(cfg).measure)
}

// run is the protocol around one pair measurement; measure returns Alice's
// and Bob's bits for their angle choices.
func run(cfg Config, measure func(ai, bi int, rng *xrand.RNG) (a, b int)) Result {
	rng := xrand.New(cfg.Seed, 0x96d)
	var res Result
	var corr [2][2]stats.Welford // CHSH correlator accumulators

	for round := 0; round < cfg.Rounds; round++ {
		ai := rng.IntN(3)
		bi := rng.IntN(3)
		a, b := measure(ai, bi, rng)

		switch {
		case (ai == 0 && bi == 0) || (ai == 1 && bi == 1):
			// Shared angle: key round. On Φ+ equal angles give equal bits.
			res.KeyRounds++
			res.Key = append(res.Key, byte(a))
			res.QBER.Add(a != b)
		case (ai == 0 || ai == 2) && (bi == 1 || bi == 2):
			// CHSH setting: x = (ai == 2), y = (bi == 2).
			res.CHSHRounds++
			x := 0
			if ai == 2 {
				x = 1
			}
			y := 0
			if bi == 2 {
				y = 1
			}
			c := 1.0
			if a != b {
				c = -1
			}
			corr[x][y].Add(c)
		default:
			res.Discarded++
		}
	}

	signs := [2][2]float64{{1, 1}, {1, -1}}
	var variance float64
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			res.S += signs[x][y] * corr[x][y].Mean()
			se := corr[x][y].StdErr()
			variance += se * se
		}
	}
	res.SE = math.Sqrt(variance)
	// Abort unless S exceeds the threshold by 3 standard errors.
	res.Aborted = res.S-3*res.SE <= cfg.AbortS
	return res
}

// pairTable is the session's physics, measured once: every distributed pair
// is the same Werner state and the angle sets are fixed, so a round only
// samples. Draw order per round: Eve's basis (IntN), Eve's outcome (Float64),
// then the joint outcome (Float64) from that branch's nine distributions.
type pairTable struct {
	werner *qsim.Density // the delivered pair: channel noise acts before Eve
	angles [][]qsim.Basis
	direct *qsim.OutcomeTable // nil when Eve intercepts
	eve    []eveBranch
}

// eveBranch is one of Eve's bases: the probability she sees 0 on Bob's
// qubit, and the two states she may forward — each collapsed when first
// drawn, so never for an outcome of probability 0.
type eveBranch struct {
	basis qsim.Basis
	p0    float64
	post  [2]*qsim.OutcomeTable
}

func newPairTable(cfg Config) *pairTable {
	t := &pairTable{
		werner: qsim.Werner(cfg.Visibility),
		angles: [][]qsim.Basis{qsim.RotatedRealSet(aliceAngles), qsim.RotatedRealSet(bobAngles)},
	}
	if cfg.Eve == nil {
		t.direct = t.werner.OutcomeTable(t.angles...)
	} else {
		for _, b := range qsim.RotatedRealSet(cfg.Eve.Bases) {
			t.eve = append(t.eve, eveBranch{basis: b, p0: t.werner.OutcomeProbability(1, b, 0)})
		}
	}
	return t
}

// measure distributes one (possibly noisy, possibly intercepted) pair and
// returns Alice's and Bob's outcome bits for their chosen angles.
func (t *pairTable) measure(ai, bi int, rng *xrand.RNG) (a, b int) {
	table := t.direct
	if table == nil {
		// Intercept-resend: Eve measures Bob's qubit first; Alice and Bob
		// then measure the collapsed (now separable) remainder.
		br := &t.eve[rng.IntN(len(t.eve))]
		seen := 0
		if rng.Float64() >= br.p0 {
			seen = 1
		}
		if br.post[seen] == nil {
			br.post[seen] = t.werner.Collapse(1, br.basis, seen).OutcomeTable(t.angles...)
		}
		table = br.post[seen]
	}
	o := table.Sample(ai*len(bobAngles)+bi, rng)
	return o >> 1 & 1, o & 1
}

// String renders a compact summary.
func (r Result) String() string {
	status := "OK"
	if r.Aborted {
		status = "ABORTED (possible eavesdropper)"
	}
	return fmt.Sprintf("key=%d bits, QBER=%.4f, S=%.4f±%.4f — %s",
		len(r.Key), r.QBER.Rate(), r.S, r.SE, status)
}
