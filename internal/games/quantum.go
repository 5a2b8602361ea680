package games

import (
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/xrand"
)

// QuantumResult holds the optimal quantum (Tsirelson) solution of an XOR
// game: the bias, the value, and the unit vectors realizing them.
type QuantumResult struct {
	Bias  float64
	Value float64
	// U[x] and V[y] are the optimizing unit vectors; the achievable quantum
	// correlators are Dot[x][y] = ⟨U[x], V[y]⟩.
	U, V [][]float64
	Dot  [][]float64
}

// QuantumValue computes the quantum value of an XOR game.
//
// By Tsirelson's theorem the quantum bias equals
//
//	max Σ_{x,y} M[x][y]·⟨u_x, v_y⟩  over unit vectors u_x, v_y ∈ R^d,
//
// with d = NA + NB sufficient, where M is the sign matrix. This is an SDP
// (the Grothendieck-type relaxation). A dual certificate built from the
// classical optimum first settles the games with no quantum advantage,
// returning that optimum as the rank-1 solution (see dualcert.go); every
// other game is solved with Burer–Monteiro row-coordinate ascent at full
// rank (see QuantumValueUncached). This replaces the paper's use of the
// Toqito Python package.
//
// Results are memoized per sign matrix: repeated solves of the same game
// (every paired-strategy constructor solves colocation-CHSH; the Figure 3
// ensemble re-draws the same K5 labelings thousands of times) return the
// cached optimum. To keep the solve a pure function of the game — and
// therefore identical whether this call hits or misses the cache, and no
// matter how many goroutines race to populate it — the restart stream is
// derived from the game itself; rng is never read. The parameter survives
// for callers that also feed it to samplers, and QuantumValueUncached
// retains the explicit-stream solver.
func (g *XORGame) QuantumValue(rng *xrand.RNG) QuantumResult {
	_ = rng
	return g.cachedQuantum(nil)
}

// QuantumValueUncached runs the Burer–Monteiro solver directly with the
// caller's restart stream, bypassing (and not populating) the solve cache:
// each row update u_x ← normalize(Σ_y M[x][y] v_y) is the exact maximizer
// holding the rest fixed, and at full rank the landscape of this SDP has no
// spurious local maxima, so ascent with a few random restarts converges to
// the global optimum (cross-checked in tests against the known CHSH value
// cos²(π/8) and against exactly solvable games).
func (g *XORGame) QuantumValueUncached(rng *xrand.RNG) QuantumResult {
	return g.quantumValueUncached(rng, g.NA+g.NB, fullRankRestarts)
}

// fullRankRestarts is the ascent's restart count at d ≥ NA+NB, where the
// landscape has no spurious local maxima and a few restarts are insurance.
const fullRankRestarts = 8

// quantumScratch is the per-solve arena of the flat solver: the sign
// matrix, current and best vector blocks, and the gradient row live in
// contiguous row-major buffers reused across restarts (and, via the pool,
// across solves), so the steady-state ascent loop allocates nothing.
type quantumScratch struct {
	m      []float64 // na×nb sign matrix, row-major
	u, v   []float64 // na×d and nb×d vector blocks of the current restart
	bu, bv []float64 // best restart's vectors
	grad   []float64 // one gradient row, length d
}

var quantumScratchPool = sync.Pool{New: func() any { return new(quantumScratch) }}

func (s *quantumScratch) grab(na, nb, d int) {
	resize := func(buf []float64, n int) []float64 {
		if cap(buf) < n {
			return make([]float64, n)
		}
		return buf[:n]
	}
	s.m = resize(s.m, na*nb)
	s.u = resize(s.u, na*d)
	s.v = resize(s.v, nb*d)
	s.bu = resize(s.bu, na*d)
	s.bv = resize(s.bv, nb*d)
	s.grad = resize(s.grad, d)
}

// quantumValueUncached is the flat Burer–Monteiro solver: the best of
// `restarts` ascents over unit vectors of dimension d. It is the one ascent
// in the package — the full-rank solve (d = NA+NB) and the rank-restricted
// one (QuantumValueRank) differ only in these two arguments. It performs the
// same floating-point operations in the same order as the jagged solver it
// replaced (kept in export_test.go as the differential oracle), so its
// results are bit-identical; only the memory layout and allocation behavior
// differ.
func (g *XORGame) quantumValueUncached(rng *xrand.RNG, d, restarts int) QuantumResult {
	na, nb := g.NA, g.NB
	s := quantumScratchPool.Get().(*quantumScratch)
	defer quantumScratchPool.Put(s)
	s.grab(na, nb, d)

	for x := 0; x < na; x++ {
		probRow, parRow := g.Prob[x], g.Parity[x]
		row := s.m[x*nb : (x+1)*nb]
		for y := 0; y < nb; y++ {
			v := probRow[y]
			if parRow[y] == 1 {
				v = -v
			}
			row[y] = v
		}
	}

	bestBias := -2.0
	for r := 0; r < restarts; r++ {
		fillRandomUnitRows(s.u, na, d, rng)
		fillRandomUnitRows(s.v, nb, d, rng)
		bias := ascendFlat(s, na, nb, d)
		if bias > bestBias {
			bestBias = bias
			copy(s.bu, s.u)
			copy(s.bv, s.v)
		}
	}

	best := QuantumResult{Bias: bestBias, Value: ValueFromBias(bestBias)}
	best.U = unflatten(s.bu, na, d)
	best.V = unflatten(s.bv, nb, d)
	best.Dot = newMatrix(na, nb)
	for x, row := range best.Dot {
		for y := 0; y < nb; y++ {
			c := linalg.FlatDot(best.U[x], best.V[y])
			// Clamp numerical dust so downstream samplers see valid
			// correlators.
			if c > 1 {
				c = 1
			} else if c < -1 {
				c = -1
			}
			row[y] = c
		}
	}
	return best
}

// ascendFlat runs coordinate ascent to convergence on the arena's current
// restart and returns the final bias: each row update is the exact best
// response, a zero gradient row (input never occurs) keeps its vector.
//
// The axpy/norm/dot kernels are inlined by hand: the vectors here are tiny
// (d = NA+NB, a dozen elements for the Figure 3 ensemble), so call overhead
// into the linalg kernels costs more than the arithmetic. Every loop keeps
// the exact operation order of the jagged oracle (element-wise multiply-add
// in ascending index, single sequential accumulator for norms and dots,
// division by the norm), so results stay bit-identical.
func ascendFlat(s *quantumScratch, na, nb, d int) float64 {
	m, u, v := s.m, s.u, s.v
	grad := s.grad[:d:d]
	prev := math.Inf(-1)
	for iter := 0; iter < 10000; iter++ {
		for x := 0; x < na; x++ {
			for j := range grad {
				grad[j] = 0
			}
			mrow := m[x*nb : (x+1)*nb]
			for y := 0; y < nb; y++ {
				c := mrow[y]
				if c == 0 {
					continue
				}
				vrow := v[y*d : y*d+d : y*d+d]
				for j, w := range vrow {
					grad[j] += c * w
				}
			}
			var sq float64
			for _, g := range grad {
				sq += g * g
			}
			n := math.Sqrt(sq)
			if n < 1e-300 {
				continue
			}
			urow := u[x*d : x*d+d : x*d+d]
			for j, g := range grad {
				urow[j] = g / n
			}
		}
		for y := 0; y < nb; y++ {
			for j := range grad {
				grad[j] = 0
			}
			for x := 0; x < na; x++ {
				c := m[x*nb+y]
				if c == 0 {
					continue
				}
				urow := u[x*d : x*d+d : x*d+d]
				for j, w := range urow {
					grad[j] += c * w
				}
			}
			var sq float64
			for _, g := range grad {
				sq += g * g
			}
			n := math.Sqrt(sq)
			if n < 1e-300 {
				continue
			}
			vrow := v[y*d : y*d+d : y*d+d]
			for j, g := range grad {
				vrow[j] = g / n
			}
		}
		// Bias Σ M[x][y]·⟨u_x, v_y⟩, dot-then-scale-then-add per entry.
		var bias float64
		for x := 0; x < na; x++ {
			urow := u[x*d : x*d+d : x*d+d]
			mrow := m[x*nb : (x+1)*nb]
			for y := 0; y < nb; y++ {
				c := mrow[y]
				if c == 0 {
					continue
				}
				vrow := v[y*d : y*d+d : y*d+d]
				var dot float64
				for j, w := range vrow {
					dot += urow[j] * w
				}
				bias += c * dot
			}
		}
		if bias-prev < 1e-13 {
			return bias
		}
		prev = bias
	}
	return prev
}

// fillRandomUnitRows fills buf (n rows of stride d) with independent random
// unit vectors: fill d normals, re-draw the whole row while its norm is
// tiny, then normalize by elementwise division.
func fillRandomUnitRows(buf []float64, n, d int, rng *xrand.RNG) {
	for i := 0; i < n; i++ {
		row := buf[i*d : i*d+d : i*d+d]
		for {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			var sq float64
			for _, w := range row {
				sq += w * w
			}
			if nrm := math.Sqrt(sq); nrm > 1e-6 {
				for j, w := range row {
					row[j] = w / nrm
				}
				break
			}
		}
	}
}

// newMatrix returns a zeroed rows×cols matrix whose rows share one slab.
func newMatrix(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	slab := make([]float64, rows*cols)
	for i := range out {
		out[i] = slab[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// unflatten copies a flat row-major block into the jagged [][]float64 the
// public QuantumResult API exposes.
func unflatten(buf []float64, n, d int) [][]float64 {
	rows := newMatrix(n, d)
	for i, row := range rows {
		copy(row, buf[i*d:])
	}
	return rows
}

// QuantumSampler builds the correlation sampler realizing the optimal
// quantum strategy at the given visibility.
func (qr QuantumResult) QuantumSampler(visibility float64) *XORQuantumSampler {
	return &XORQuantumSampler{Dot: qr.Dot, Visibility: visibility}
}

// AdvantageTolerance is the numerical margin above the classical bias that
// counts as a quantum advantage. The solver converges far tighter than this;
// the tolerance guards against calling a tie an advantage.
const AdvantageTolerance = 1e-7

// HasQuantumAdvantage reports whether the game's quantum value strictly
// exceeds its classical value, together with both results.
func (g *XORGame) HasQuantumAdvantage(rng *xrand.RNG) (bool, ClassicalResult, QuantumResult) {
	c := g.ClassicalValue()
	q := g.cachedQuantum(&c) // rng is never read, as in QuantumValue
	return q.Bias > c.Bias+AdvantageTolerance, c, q
}

// AdvantageProbability estimates Figure 3's quantity: the probability that a
// random XOR game on the complete graph K_n — each edge independently
// Exclusive with probability pExclusive — has a quantum advantage.
//
// The trials run through SolveBatchFrom: each trial draws its game from its
// own stream derived from (one draw of rng, trial index), so the estimate
// is identical at any worker count — and, because both solves are memoized
// per game and the K_n ensemble has at most 2^(n(n−1)/2) distinct
// labelings, repeat labelings cost a cache lookup instead of an SDP solve.
func AdvantageProbability(n int, pExclusive float64, trials int, rng *xrand.RNG) float64 {
	// No trials means no evidence either way: report 0 rather than the 0/0
	// NaN the hits/trials ratio would produce (without consuming rng, so a
	// caller's stream is unaffected by a degenerate call).
	if trials <= 0 {
		return 0
	}
	base := rng.Uint64()
	results := SolveBatchFrom(trials, func(i int) *XORGame {
		return RandomGraphXORGame(n, pExclusive, xrand.Derive(base, uint64(i)))
	}, 0)
	hits := 0
	for _, r := range results {
		if r.HasAdvantage() {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}
