package games

import (
	"math"

	"repro/internal/qsim"
	"repro/internal/xrand"
)

// JointSampler produces one round of joint answers given both inputs. This
// is the simulation-level ("referee's eye") view: inside a simulation we may
// sample (a, b) jointly even though the physical parties act independently —
// the behaviors sampled are exactly those realizable without communication
// (deterministic tables, shared randomness, or quantum correlations).
type JointSampler interface {
	Sample(x, y int, rng *xrand.RNG) (a, b int)
}

// XORQuantumSampler samples from the Tsirelson behavior of an XOR-game
// vector strategy:
//
//	P(a, b | x, y) = (1 + (−1)^{a⊕b}·V·⟨u_x, v_y⟩) / 4
//
// with uniformly random marginals — the exact statistics a Bell-pair (or
// higher-dimensional) measurement strategy produces. Visibility V < 1 models
// Werner-type noise (V scales every correlator, which is precisely the
// effect of replacing the pure entangled state with its Werner mixture).
type XORQuantumSampler struct {
	// Dot[x][y] = ⟨u_x, v_y⟩ ∈ [−1, 1].
	Dot [][]float64
	// Visibility in [0, 1]; 1 is noiseless.
	Visibility float64
}

// Sample draws one round: a is a fair coin; b agrees with a with probability
// (1 + V·⟨u_x,v_y⟩)/2.
func (s *XORQuantumSampler) Sample(x, y int, rng *xrand.RNG) (a, b int) {
	c := s.Visibility * s.Dot[x][y]
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	a = rng.IntN(2)
	b = a
	if !rng.Bool((1 + c) / 2) {
		b = 1 - a
	}
	return a, b
}

// CHSHAngles holds the per-input measurement angles for a two-player
// real-basis strategy on a Bell pair.
type CHSHAngles struct {
	// ThetaA[x] is Alice's angle on input x; ThetaB[y] is Bob's on input y.
	ThetaA, ThetaB []float64
	// FlipB flips Bob's output bit, converting a CHSH strategy into the
	// colocation variant (win condition a ⊕ b = ¬(x ∧ y)).
	FlipB bool
}

// OptimalCHSHAngles returns the paper's optimal strategy: Alice uses 0 and
// π/4; Bob uses π/8 and −π/8.
func OptimalCHSHAngles() CHSHAngles {
	return CHSHAngles{
		ThetaA: []float64{0, math.Pi / 4},
		ThetaB: []float64{math.Pi / 8, -math.Pi / 8},
	}
}

// OptimalColocationAngles returns the same measurements with Bob's output
// flipped, implementing a ⊕ b = ¬(x ∧ y) as §4.1 prescribes.
func OptimalColocationAngles() CHSHAngles {
	a := OptimalCHSHAngles()
	a.FlipB = true
	return a
}

// BellSampler plays a two-player game by actually simulating the physics:
// the shared two-qubit state (a Werner state at the given visibility) is
// measured with qubit 0 in Alice's basis and qubit 1 in Bob's, and a round
// returns the outcomes. It cross-validates XORQuantumSampler.
type BellSampler struct {
	Angles     CHSHAngles // as constructed; not read again
	Visibility float64

	table  *qsim.OutcomeTable // Werner(V) in ThetaA × ThetaB
	nA, nB int
	flipB  bool
	rng    *xrand.RNG
}

// NewBellSampler prepares the shared state once: measurement statistics
// depend only on the state and the angles, which are identical every round.
func NewBellSampler(angles CHSHAngles, visibility float64, rng *xrand.RNG) *BellSampler {
	alice, bob := qsim.RotatedRealSet(angles.ThetaA), qsim.RotatedRealSet(angles.ThetaB)
	return &BellSampler{
		Angles:     angles,
		Visibility: visibility,
		table:      qsim.Werner(visibility).OutcomeTable(alice, bob),
		nA:         len(alice),
		nB:         len(bob),
		flipB:      angles.FlipB,
		rng:        rng,
	}
}

// cell is the table's basis choice for input (x, y).
func (bs *BellSampler) cell(x, y int) int {
	if x < 0 || x >= bs.nA || y < 0 || y >= bs.nB {
		panic("games: BellSampler input out of range")
	}
	return x*bs.nB + y
}

// Sample measures a fresh entangled pair in the input-dependent bases.
func (bs *BellSampler) Sample(x, y int, _ *xrand.RNG) (a, b int) {
	return outcomeBits(bs.table.Sample(bs.cell(x, y), bs.rng), bs.flipB)
}

// outcomeBits unpacks a joint two-qubit outcome into the players' answers.
func outcomeBits(o int, flipB bool) (a, b int) {
	a = o >> 1 & 1
	b = o & 1
	if flipB {
		b = 1 - b
	}
	return a, b
}

// ValueOn is the strategy's exact winning probability on g when played on
// the shared two-qubit state rho: qubit 0 measured at s.ThetaA[x], qubit 1
// at s.ThetaB[y], scored by the Born rule (no sampling).
func (g *XORGame) ValueOn(rho *qsim.Density, s CHSHAngles) float64 {
	var v float64
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			if g.Prob[x][y] == 0 {
				continue
			}
			dist := rho.OutcomeDistribution([]qsim.Basis{
				qsim.RotatedReal(s.ThetaA[x]), qsim.RotatedReal(s.ThetaB[y]),
			})
			for o, p := range dist {
				if a, b := outcomeBits(o, s.FlipB); g.Wins(x, y, a, b) {
					v += g.Prob[x][y] * p
				}
			}
		}
	}
	return v
}

// TableSampler draws jointly from an explicit behavior table
// P[x][y][a][b] (binary outputs). It is the generic carrier for strategies
// produced numerically — e.g. measurements re-optimized for a certified
// noisy state — whose statistics fit no closed form.
type TableSampler struct {
	P [][][][]float64

	w [4]float64 // scratch for the per-round categorical draw
}

// Sample draws one round from the table.
func (t *TableSampler) Sample(x, y int, rng *xrand.RNG) (a, b int) {
	p := t.P[x][y]
	t.w[0], t.w[1] = p[0][0], p[0][1]
	t.w[2], t.w[3] = p[1][0], p[1][1]
	o := rng.Categorical(t.w[:])
	return o >> 1, o & 1
}

// ColocationDecision wraps a sampler into the §4.1 load-balancer view:
// inputs are task types (true = type-C), outputs are "send to server 0 or 1
// of the agreed pair"; the pair succeeds when servers match iff both tasks
// are type-C.
func ColocationDecision(s JointSampler, aIsC, bIsC bool, rng *xrand.RNG) (serverA, serverB int) {
	x, y := 0, 0
	if aIsC {
		x = 1
	}
	if bIsC {
		y = 1
	}
	return s.Sample(x, y, rng)
}
