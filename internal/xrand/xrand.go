// Package xrand provides the deterministic random-number plumbing used by
// every experiment in this repository. All randomness flows from explicit
// seeds so any figure or table can be regenerated bit-for-bit.
//
// The generator is PCG-64 (via math/rand/v2), and Split derives independent
// child streams from a parent so concurrent simulation entities (balancers,
// switches, sources) do not share state.
package xrand

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random stream. The zero value is not usable; create
// streams with New or Split.
//
// r wraps src and holds no state of its own (rand/v2.Rand buffers nothing),
// so the two are one stream: the hot draws (Uint64, Float64, Bool) call
// the concrete PCG and skip rand.Source's interface dispatch, everything else
// goes through r. TestDirectPCGMatchesRand pins that.
type RNG struct {
	r   *rand.Rand
	src *rand.PCG
}

// New returns a stream seeded from the two words. Using the pair (seed, salt)
// rather than one word makes derived-stream construction collision-resistant.
func New(seed, salt uint64) *RNG {
	src := rand.NewPCG(seed, salt)
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

// IntN returns a uniform sample in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.Float64() < p }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an Exp(1) sample; divide by rate for Exp(rate).
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Poisson returns a Poisson(λ) sample. For small λ it uses Knuth's product
// method; for large λ a normal approximation with continuity correction,
// which is accurate to well under the noise floor of our experiments.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= g.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := lambda + math.Sqrt(lambda)*g.r.NormFloat64() + 0.5
	if n < 0 {
		return 0
	}
	return int(n)
}

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
	a := g.r.IntN(n)
	b := g.r.IntN(n - 1)
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
		t := g.r.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
