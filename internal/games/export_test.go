package games

import (
	"math"

	"repro/internal/linalg"
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

// The solvers the flat kernels (classicalGray, quantumValueUncached)
// replaced, kept as their differential oracles: the kernels must reproduce
// these results bit for bit.

// ClassicalValueReference is the pre-Gray-code brute-force enumeration.
// Panics if NA > 24.
func (g *XORGame) ClassicalValueReference() ClassicalResult {
	if g.NA > 24 {
		panic("games: ClassicalValue enumeration too large; reformulate with the smaller alphabet on Alice's side")
	}
	m := g.SignMatrix()
	best := ClassicalResult{Bias: -2}
	for mask := 0; mask < 1<<g.NA; mask++ {
		var bias float64
		bSigns := make([]int, g.NB)
		for y := 0; y < g.NB; y++ {
			var col float64
			for x := 0; x < g.NA; x++ {
				sx := 1.0
				if mask>>x&1 == 1 {
					sx = -1
				}
				col += m[x][y] * sx
			}
			// Bob's answer contributes (−1)^{b_y}·col; pick the better sign.
			if col >= 0 {
				bias += col
				bSigns[y] = 0
			} else {
				bias -= col
				bSigns[y] = 1
			}
		}
		if bias > best.Bias {
			a := make([]int, g.NA)
			for x := range a {
				a[x] = mask >> x & 1
			}
			best = ClassicalResult{Bias: bias, Value: ValueFromBias(bias), A: a, B: bSigns}
		}
	}
	return best
}

// QuantumValueReference is the pre-flat-kernel jagged full-rank solver: the
// flat solver must reproduce its results bit for bit.
func (g *XORGame) QuantumValueReference(rng *xrand.RNG) QuantumResult {
	return g.quantumValueRankReference(rng, g.NA+g.NB)
}

// quantumValueRankReference is the jagged solver at any rank, as
// QuantumValueRank ran it before the flat kernel took the rank as an
// argument: 8 restarts at full rank, 24 below.
func (g *XORGame) quantumValueRankReference(rng *xrand.RNG, rank int) QuantumResult {
	m := g.SignMatrix()
	restarts := 8
	if rank < g.NA+g.NB {
		restarts = 24
	}
	best := QuantumResult{Bias: -2}
	for r := 0; r < restarts; r++ {
		u, v := randomUnitVectors(g.NA, rank, rng), randomUnitVectors(g.NB, rank, rng)
		bias := ascend(m, u, v)
		if bias > best.Bias {
			best = QuantumResult{Bias: bias, Value: ValueFromBias(bias), U: u, V: v}
		}
	}
	best.Dot = dotTable(best.U, best.V)
	return best
}

func dotTable(u, v [][]float64) [][]float64 {
	dot := make([][]float64, len(u))
	for x := range u {
		dot[x] = make([]float64, len(v))
		for y := range v {
			s := linalg.RVec(u[x]).Dot(linalg.RVec(v[y]))
			if s > 1 {
				s = 1
			} else if s < -1 {
				s = -1
			}
			dot[x][y] = s
		}
	}
	return dot
}

// ascend runs coordinate ascent to convergence and returns the final bias.
// u and v are updated in place.
func ascend(m [][]float64, u, v [][]float64) float64 {
	na, nb := len(u), len(v)
	d := len(u[0])
	// One gradient buffer for the whole ascent: the row update only needs
	// the current row's gradient, so reusing it keeps the inner loop
	// allocation-free (this solver runs once per Figure 3 trial × restart).
	grad := make(linalg.RVec, d)
	prev := math.Inf(-1)
	for iter := 0; iter < 10000; iter++ {
		for x := 0; x < na; x++ {
			grad.Zero()
			for y := 0; y < nb; y++ {
				if m[x][y] != 0 {
					addScaled(grad, m[x][y], v[y])
				}
			}
			if grad.Norm() < 1e-300 {
				// This input never occurs (zero row): any unit vector is
				// optimal; keep the current one.
				continue
			}
			copy(u[x], grad.Normalize())
		}
		for y := 0; y < nb; y++ {
			grad.Zero()
			for x := 0; x < na; x++ {
				if m[x][y] != 0 {
					addScaled(grad, m[x][y], u[x])
				}
			}
			if grad.Norm() < 1e-300 {
				continue
			}
			copy(v[y], grad.Normalize())
		}
		bias := biasOf(m, u, v)
		if bias-prev < 1e-13 {
			return bias
		}
		prev = bias
	}
	return prev
}

func biasOf(m [][]float64, u, v [][]float64) float64 {
	var s float64
	for x := range u {
		for y := range v {
			if m[x][y] != 0 {
				s += m[x][y] * linalg.RVec(u[x]).Dot(linalg.RVec(v[y]))
			}
		}
	}
	return s
}

func randomUnitVectors(n, d int, rng *xrand.RNG) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make(linalg.RVec, d)
		for {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if v.Norm() > 1e-6 {
				break
			}
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// SignMatrix returns M[x][y] = π(x,y)·(−1)^{Parity[x][y]} — the cost matrix
// of the bias optimization. Bias of a behavior with correlators
// c(x,y) = E[(−1)^{a⊕b}] is Σ M·c, and value = (1 + bias)/2.
func (g *XORGame) SignMatrix() [][]float64 {
	m := make([][]float64, g.NA)
	for x := range m {
		m[x] = make([]float64, g.NB)
		for y := 0; y < g.NB; y++ {
			s := 1.0
			if g.Parity[x][y] == 1 {
				s = -1
			}
			m[x][y] = g.Prob[x][y] * s
		}
	}
	return m
}

// HasQuantumAdvantage reports whether the game's quantum value strictly
// exceeds its classical value, together with both results.
func (g *XORGame) HasQuantumAdvantage(rng *xrand.RNG) (bool, ClassicalResult, QuantumResult) {
	c := g.ClassicalValue()
	q := g.cachedQuantum(&c) // rng is never read, as in QuantumValue
	return q.Bias > c.Bias+AdvantageTolerance, c, q
}

// LeaderElection runs one W-state election round among n parties and
// returns the elected leader's index. It always succeeds.
func LeaderElection(n int, rng *xrand.RNG) int {
	return electLeader(wElectionTable(n), n, rng)
}

// ExpectedS returns the S-value a Werner state of the given visibility
// achieves with the optimal angles: 2√2·V. Used to size certification runs
// and to convert measured S back into an effective visibility estimate.
func ExpectedS(visibility float64) float64 { return TsirelsonBound * visibility }

// VisibilityFromS inverts ExpectedS: the effective visibility implied by a
// measured S-value under optimal measurements.
func VisibilityFromS(s float64) float64 { return s / TsirelsonBound }

// Behavior returns the full conditional distribution P[x][y][a][b].
func (s *XORQuantumSampler) Behavior(na, nb int) [][][][]float64 {
	p := make([][][][]float64, na)
	for x := 0; x < na; x++ {
		p[x] = make([][][]float64, nb)
		for y := 0; y < nb; y++ {
			c := s.Visibility * s.Dot[x][y]
			p[x][y] = [][]float64{
				{(1 + c) / 4, (1 - c) / 4},
				{(1 - c) / 4, (1 + c) / 4},
			}
		}
	}
	return p
}

// addScaled sets v ← v + c·w in place.
func addScaled(v linalg.RVec, c float64, w linalg.RVec) {
	for i := range v {
		v[i] += c * w[i]
	}
}

// positiveEigenprojectorOracle is the see-saw's best response as it was
// written before it moved into a run's buffers: hermitize, EigHermitian,
// then a sum of Outer products, each step a fresh matrix.
func positiveEigenprojectorOracle(h *linalg.Mat) *linalg.Mat {
	hh := h.Add(h.Dagger()).Scale(0.5)
	eig := linalg.EigHermitian(hh)
	out := linalg.NewMat(2, 2)
	for k, v := range eig.Values {
		if v > 0 {
			col := linalg.Vec{eig.Vectors.At(0, k), eig.Vectors.At(1, k)}
			out = out.Add(col.Outer(col))
		}
	}
	return out
}
