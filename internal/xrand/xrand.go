// Package xrand provides the deterministic random-number plumbing used by
// every experiment in this repository. All randomness flows from explicit
// seeds so any figure or table can be regenerated bit-for-bit.
//
// The generator is math/rand/v2's PCG-DXSM, whose 128-bit state the RNG
// owns, and Split derives independent child streams from a parent so
// concurrent simulation entities (balancers, switches, sources) do not share
// state. The hot draws — Uint64, Float64, Bool, IntN and the bulk BoolMask —
// step the state directly and return exactly what rand/v2's methods return
// on the same stream.
package xrand

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random stream. The zero value is not usable; create
// streams with New or Split.
//
// r wraps src and holds no state of its own (rand/v2.Rand buffers nothing),
// so the two are one stream: the hot draws (Uint64, Float64, Bool, IntN,
// BoolMask) step src in place and skip rand.Source's interface dispatch,
// everything else goes through r. TestDirectPCGMatchesRand pins that, and
// pins src to rand/v2's own PCG.
type RNG struct {
	r   *rand.Rand
	src *pcg
}

// pcg is rand/v2's PCG: a 128-bit LCG with the DXSM output function, same
// constants, same seeding (NewPCG(seed1, seed2) sets hi, lo). Owning the
// state lets BoolMask keep it in registers across a run of draws.
type pcg struct{ hi, lo uint64 }

// PCG-DXSM constants, as math/rand/v2 defines them: the 128-bit LCG
// multiplier and increment, and the DXSM output multiplier.
const (
	pcgMulHi   = 2549297995355413924
	pcgMulLo   = 4865540595714422341
	pcgIncHi   = 6364136223846793005
	pcgIncLo   = 1442695040888963407
	pcgDXSMMul = 0xda942042e4dd58b5
)

// pcgNext advances the state once and returns the output word for it.
func pcgNext(hi, lo uint64) (nhi, nlo, out uint64) {
	// state = state * mul + inc
	nhi, nlo = bits.Mul64(lo, pcgMulLo)
	nhi += hi*pcgMulLo + lo*pcgMulHi
	nlo, c := bits.Add64(nlo, pcgIncLo, 0)
	nhi, _ = bits.Add64(nhi, pcgIncHi, c)
	// DXSM "double xorshift multiply".
	out = nhi ^ nhi>>32
	out *= pcgDXSMMul
	out ^= out >> 48
	out *= nlo | 1
	return nhi, nlo, out
}

// Uint64 implements rand.Source.
func (p *pcg) Uint64() uint64 {
	var out uint64
	p.hi, p.lo, out = pcgNext(p.hi, p.lo)
	return out
}

// New returns a stream seeded from the two words. Using the pair (seed, salt)
// rather than one word makes derived-stream construction collision-resistant.
func New(seed, salt uint64) *RNG {
	src := &pcg{hi: seed, lo: salt}
	return &RNG{r: rand.New(src), src: src}
}

// Split derives a child stream. Children with distinct indices are
// statistically independent of each other and of the parent's future output.
func (g *RNG) Split(index uint64) *RNG {
	return New(g.src.Uint64(), mix(index))
}

// Derive builds the index-th member of an independent stream family rooted
// at base. Unlike Split it reads no parent state, so it is the seeding
// primitive for deterministic fan-out: a caller draws base from its own
// stream once, then parallel job i uses Derive(base, i) — the jobs' streams
// are identical whether they run serially or on any number of workers.
func Derive(base, index uint64) *RNG {
	return New(base, mix(index))
}

// mix is splitmix64's finalizer; it decorrelates consecutive indices.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1): rand/v2's own expression, the
// LOW 53 bits of one word over 2⁵³.
func (g *RNG) Float64() float64 { return float64(g.src.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform sample in [0, n) as rand/v2's IntN draws it: a mask
// for a power of two, otherwise Lemire's multiply, rejecting low words below
// 2⁶⁴ mod n. rand/v2's 32-bit path draws the same sequence, so the stream is
// the same on every platform. It panics if n <= 0.
func (g *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN needs n > 0")
	}
	u := uint64(n)
	if u&(u-1) == 0 {
		return int(g.src.Uint64() & (u - 1))
	}
	hi, lo := bits.Mul64(g.src.Uint64(), u)
	if lo < u {
		for thresh := -u % u; lo < thresh; {
			hi, lo = bits.Mul64(g.src.Uint64(), u)
		}
	}
	return int(hi)
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.Float64() < p }

// BoolMask makes n draws of Bool(p) and stores them as bits: draw i is bit
// i%64 of mask[i/64]. Bits at or past n in the words it writes are 0, and the
// stream ends where n calls of Bool(p) leave it. It compares each draw's low
// 53 bits against one integer threshold instead of converting it to a float,
// which is the same test: Float64() < p ⇔ u53 < p·2⁵³ ⇔ u53 < ⌈p·2⁵³⌉.
func (g *RNG) BoolMask(p float64, mask []uint64, n int) {
	t := boolThreshold(p)
	hi, lo := g.src.hi, g.src.lo
	for w := 0; n > 0; w++ {
		var m, u uint64
		for j := 0; j < min(n, 64); j++ {
			hi, lo, u = pcgNext(hi, lo)
			// u53 < t ≤ 2⁵³ exactly when u53 − t wraps, setting the top bit.
			m |= (u<<11>>11 - t) >> 63 << j
		}
		mask[w] = m
		n -= 64
	}
	g.src.hi, g.src.lo = hi, lo
}

// boolThreshold is ⌈p·2⁵³⌉ clamped to [0, 2⁵³]: no draw passes a p that is
// NaN or ≤ 0, every draw passes a p ≥ 1. The clamp comes before the
// conversion because uint64 of a NaN or a negative float is
// platform-dependent. For p in (0, 1) the product is exact.
func boolThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an Exp(1) sample; divide by rate for Exp(rate).
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a uniform random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the first n indices via the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Categorical samples an index proportionally to the (non-negative) weights.
// It panics if the weights sum to zero or any weight is negative.
func (g *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: negative or NaN categorical weight")
		}
		total += w
	}
	if total == 0 {
		panic("xrand: categorical weights sum to zero")
	}
	u := g.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack lands on the last bucket
}

// TwoDistinct returns two distinct uniform indices from [0, n). Panics if n < 2.
func (g *RNG) TwoDistinct(n int) (int, int) {
	if n < 2 {
		panic("xrand: TwoDistinct needs n >= 2")
	}
	a := g.IntN(n)
	b := g.IntN(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n)
// using Floyd's algorithm. The result order is randomized.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("xrand: sample size exceeds population")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
