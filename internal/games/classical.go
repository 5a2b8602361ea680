package games

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Classical values. By convexity, shared randomness is a mixture of
// deterministic strategies, so the classical value of any game is attained
// by a deterministic strategy — we enumerate them exactly.

// ClassicalResult describes the best classical strategy for an XOR game.
type ClassicalResult struct {
	Bias  float64
	Value float64
	// A[x] and B[y] are the optimal deterministic answers.
	A, B []int
}

// classicalEnumLimit caps the enumerated side: 2^24 strategies is the
// largest sweep the exact solver will attempt.
const classicalEnumLimit = 24

// ClassicalValue computes the exact classical value of an XOR game by
// enumerating one party's deterministic strategies with a Gray-code sweep;
// the other party's best response is separable per input. The enumeration
// runs over Alice when NA ≤ 24, else over Bob when NB ≤ 24 (the transposed
// game — tall-skinny games no longer panic), and costs O(2^n · m) for an
// n×m enumeration instead of the brute-force O(2^n · n·m). Panics only when
// both alphabets exceed 24 inputs.
//
// Results are memoized per sign matrix (see QuantumValue): strategy
// constructors and the Figure 3 trial loop re-solve identical games freely.
func (g *XORGame) ClassicalValue() ClassicalResult {
	return g.cachedClassical()
}

// ClassicalValueUncached runs the Gray-code enumeration directly, bypassing
// (and not populating) the solve cache — the benchmarking entry point
// mirroring QuantumValueUncached.
func (g *XORGame) ClassicalValueUncached() ClassicalResult {
	return g.classicalValueUncached()
}

// classicalValueUncached dispatches the enumeration, run on cache misses.
func (g *XORGame) classicalValueUncached() ClassicalResult {
	switch {
	case g.NA <= classicalEnumLimit:
		return g.classicalGray(false)
	case g.NB <= classicalEnumLimit:
		return g.classicalGray(true)
	default:
		panic(fmt.Sprintf(
			"games: %s: ClassicalValue enumeration too large: needs one input alphabet ≤ %d, got NA=%d, NB=%d",
			g.Name, classicalEnumLimit, g.NA, g.NB))
	}
}

// classicalScratch is the reusable flat workspace of one Gray-code sweep:
// the sign matrix in row-major order, the running column sums, and the
// candidate-mask list. Pooled so steady-state solves allocate nothing
// beyond the returned answer tables.
type classicalScratch struct {
	m    []float64 // na×nb sign matrix, row-major (row = enumerated side)
	col  []float64 // Bob-side column sums for the current mask
	cand []grayCandidate
}

// grayCandidate is a mask whose incrementally-computed bias was within the
// error bound of the running maximum when visited.
type grayCandidate struct {
	mask uint32
	bias float64
}

var classicalScratchPool = sync.Pool{New: func() any { return new(classicalScratch) }}

// grab resizes the scratch for an na×nb enumeration.
func (s *classicalScratch) grab(na, nb int) {
	if cap(s.m) < na*nb {
		s.m = make([]float64, na*nb)
	}
	s.m = s.m[:na*nb]
	if cap(s.col) < nb {
		s.col = make([]float64, nb)
	}
	s.col = s.col[:nb]
	s.cand = s.cand[:0]
}

// classicalGray runs the Gray-code enumeration. With transposed=false it
// enumerates Alice's 2^NA sign assignments; with transposed=true it solves
// the transposed game (enumerate Bob, best-respond Alice) and swaps the
// answer tables back.
//
// The sweep flips exactly one enumerated-side sign per step and updates the
// responder-side column sums incrementally, so each of the 2^n masks costs
// O(m) instead of O(n·m). Incremental float sums can drift from the
// brute-force fresh sums by a few ulps, so the sweep only *locates*
// candidate maximizers (every mask within a conservative error bound of the
// running maximum); the few survivors are then re-scored with exactly the
// brute-force arithmetic and tie-break (lowest mask wins), making the
// returned result bit-identical to the brute-force enumeration (kept in
// export_test.go as the differential oracle).
func (g *XORGame) classicalGray(transposed bool) ClassicalResult {
	na, nb := g.NA, g.NB
	if transposed {
		na, nb = nb, na
	}
	s := classicalScratchPool.Get().(*classicalScratch)
	defer classicalScratchPool.Put(s)
	s.grab(na, nb)

	// Flat sign matrix with the enumerated side as rows; also accumulate
	// the total mass Σ|m| that scales the error bound.
	var mass float64
	for x := 0; x < g.NA; x++ {
		probRow, parRow := g.Prob[x], g.Parity[x]
		for y := 0; y < g.NB; y++ {
			v := probRow[y]
			if parRow[y] == 1 {
				v = -v
			}
			if transposed {
				s.m[y*nb+x] = v
			} else {
				s.m[x*nb+y] = v
			}
			mass += math.Abs(v)
		}
	}

	// Column sums for mask 0 (all signs +), summed in row order to match
	// the brute-force order exactly.
	for y := range s.col {
		s.col[y] = 0
	}
	for x := 0; x < na; x++ {
		row := s.m[x*nb : (x+1)*nb]
		for y, v := range row {
			s.col[y] += v
		}
	}

	// eps bounds how far the incremental bias can drift from a fresh
	// evaluation: each of the 2^na Gray steps performs one rounded update
	// per column, and the running |col| never exceeds the total mass. The
	// 2eps candidate window then provably contains every true maximizer.
	steps := uint32(1) << na
	eps := (float64(steps) + float64(na+nb)) * 4 * 2.3e-16 * math.Max(mass, 1)
	if eps < 1e-13 {
		eps = 1e-13
	}

	var bias float64
	for _, c := range s.col {
		bias += math.Abs(c)
	}
	maxg := bias
	s.cand = append(s.cand, grayCandidate{mask: 0, bias: bias})

	// candCap bounds scratch memory on pathologically tie-heavy games;
	// past it we abandon the candidate sweep and fall back to brute force
	// (which such degenerate games cost anyway).
	const candCap = 1 << 12
	mask := uint32(0)
	overflow := false
	for i := uint32(1); i < steps; i++ {
		bit := uint32(bits.TrailingZeros32(i))
		mask ^= 1 << bit
		row := s.m[int(bit)*nb : (int(bit)+1)*nb]
		bias = 0
		if mask>>bit&1 == 1 { // sign of row `bit` flipped + → −
			for y, v := range row {
				c := s.col[y] - 2*v
				s.col[y] = c
				bias += math.Abs(c)
			}
		} else { // − → +
			for y, v := range row {
				c := s.col[y] + 2*v
				s.col[y] = c
				bias += math.Abs(c)
			}
		}
		if bias >= maxg-2*eps {
			if bias > maxg {
				maxg = bias
				// Prune candidates that fell out of the window.
				kept := s.cand[:0]
				for _, c := range s.cand {
					if c.bias >= maxg-2*eps {
						kept = append(kept, c)
					}
				}
				s.cand = kept
			}
			s.cand = append(s.cand, grayCandidate{mask: mask, bias: bias})
			if len(s.cand) > candCap {
				overflow = true
				break
			}
		}
	}
	if overflow {
		return g.classicalBruteForce(transposed, na, nb, s.m)
	}

	// Re-score the candidates with the brute-force arithmetic and its
	// tie-break (first mask in binary order wins via strict >, i.e. the
	// lowest mask among exact maximizers).
	bestBias := -2.0
	bestMask := -1
	for _, c := range s.cand {
		b := freshBias(na, nb, s.m, c.mask)
		if b > bestBias || (b == bestBias && int(c.mask) < bestMask) {
			bestBias, bestMask = b, int(c.mask)
		}
	}
	return assembleClassical(transposed, na, nb, s.m, uint32(bestMask), bestBias)
}

// freshBias evaluates one mask exactly the way the brute-force enumeration
// does: fresh column sums in row order, responder picks the better sign.
func freshBias(na, nb int, m []float64, mask uint32) float64 {
	var bias float64
	for y := 0; y < nb; y++ {
		var col float64
		for x := 0; x < na; x++ {
			sx := 1.0
			if mask>>x&1 == 1 {
				sx = -1
			}
			col += m[x*nb+y] * sx
		}
		if col >= 0 {
			bias += col
		} else {
			bias -= col
		}
	}
	return bias
}

// assembleClassical materializes the winning mask into a ClassicalResult,
// swapping the answer tables back when the transposed game was solved.
func assembleClassical(transposed bool, na, nb int, m []float64, mask uint32, bias float64) ClassicalResult {
	enum := make([]int, na)
	for x := range enum {
		enum[x] = int(mask >> x & 1)
	}
	resp := make([]int, nb)
	for y := 0; y < nb; y++ {
		var col float64
		for x := 0; x < na; x++ {
			sx := 1.0
			if mask>>x&1 == 1 {
				sx = -1
			}
			col += m[x*nb+y] * sx
		}
		if col < 0 {
			resp[y] = 1
		}
	}
	r := ClassicalResult{Bias: bias, Value: ValueFromBias(bias)}
	if transposed {
		r.A, r.B = resp, enum
	} else {
		r.A, r.B = enum, resp
	}
	return r
}

// classicalBruteForce is the fallback for candidate overflow: the full
// O(2^na·na·nb) sweep on the (possibly transposed) flat matrix, with the
// brute-force arithmetic, so results stay bit-identical to that oracle.
func (g *XORGame) classicalBruteForce(transposed bool, na, nb int, m []float64) ClassicalResult {
	bestBias := -2.0
	bestMask := uint32(0)
	found := false
	for mask := uint32(0); mask < 1<<na; mask++ {
		b := freshBias(na, nb, m, mask)
		if !found || b > bestBias {
			bestBias, bestMask, found = b, mask, true
		}
	}
	return assembleClassical(transposed, na, nb, m, bestMask, bestBias)
}

// DeterministicSampler is a classical strategy: fixed answer tables for both
// parties. It is also the building block for shared-randomness strategies.
type DeterministicSampler struct {
	A, B []int
}

// Sample returns the strategy's answers; the rng is unused (deterministic).
func (d *DeterministicSampler) Sample(x, y int, _ RoundRNG) (a, b int) {
	return d.A[x] & 1, d.B[y] & 1
}

// BestClassicalSampler returns the optimal deterministic strategy as a
// sampler.
func (g *XORGame) BestClassicalSampler() *DeterministicSampler {
	r := g.ClassicalValue()
	return &DeterministicSampler{A: r.A, B: r.B}
}

// MixtureSampler plays one of several strategies per round, chosen by shared
// randomness with the given weights. By convexity its value is the weighted
// average of the component values — never above the best deterministic
// strategy; it exists so tests can verify that claim numerically.
type MixtureSampler struct {
	Weights    []float64
	Strategies []JointSampler
}

// Sample picks a component strategy with the shared coin and delegates.
func (ms *MixtureSampler) Sample(x, y int, rng RoundRNG) (a, b int) {
	i := rng.Categorical(ms.Weights)
	return ms.Strategies[i].Sample(x, y, rng)
}

// Value returns the exact winning probability of an arbitrary behavior
// provided as conditional distributions P[x][y][a][b].
func (g *XORGame) Value(p [][][][]float64) float64 {
	var v float64
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			if g.Prob[x][y] == 0 {
				continue
			}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if g.Wins(x, y, a, b) {
						v += g.Prob[x][y] * p[x][y][a][b]
					}
				}
			}
		}
	}
	return v
}

// EmpiricalValue estimates a sampler's winning probability over the given
// number of rounds with referee-drawn inputs.
func (g *XORGame) EmpiricalValue(s JointSampler, rounds int, rng RoundRNG) float64 {
	wins := 0
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		if g.Wins(x, y, a, b) {
			wins++
		}
	}
	return float64(wins) / float64(rounds)
}
