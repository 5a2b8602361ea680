package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// exactMoments is the reference for IntMoments: the mean and the sum of
// squared deviations of xs as exact rationals, rounded once to float64.
// Short streams use the definition Σ(x − x̄)²; long ones accumulate Σx and
// Σx² as big.Int sample by sample, which shares no arithmetic with the
// 128-bit words under test.
func exactMoments(xs []int64) (mean, m2 float64) {
	n := big.NewInt(int64(len(xs)))
	sum, sq := new(big.Int), new(big.Int)
	for _, x := range xs {
		b := big.NewInt(x)
		sum.Add(sum, b)
		sq.Add(sq, new(big.Int).Mul(b, b))
	}
	r := new(big.Rat).SetFrac(sum, n)
	mean, _ = r.Float64()
	if len(xs) <= 5000 {
		dev := new(big.Rat)
		for _, x := range xs {
			d := new(big.Rat).Sub(new(big.Rat).SetInt64(x), r)
			dev.Add(dev, d.Mul(d, d))
		}
		m2, _ = dev.Float64()
		return mean, m2
	}
	dev := new(big.Int).Mul(n, sq)
	dev.Sub(dev, sum.Mul(sum, sum))
	m2, _ = new(big.Rat).SetFrac(dev, n).Float64()
	return mean, m2
}

// TestIntMomentsExact compares IntMoments with exact rational arithmetic on
// random streams and on the adversarial ones a float accumulator gets
// wrong: a large offset under small noise (the mean's low bits drown), a
// long stream, a constant stream (m2 must be exactly 0), and extreme values
// whose squares carry across both 64-bit words. Count, mean, m2, min and
// max must all be exact — the float64 nearest the true value.
//
// Mutants killed: dropping the carry into either high word; squaring the
// signed value's bits without taking |x| first; converting m2 as
// Σx² − (Σx)²/n in float64; n−1 in place of n in the m2 denominator.
func TestIntMomentsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 29))
	stream := func(n int, f func(i int) int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := map[string][]int64{
		"single":        {-7},
		"small":         stream(1000, func(int) int64 { return rng.Int64N(40) }),
		"signed":        stream(3000, func(int) int64 { return rng.Int64N(2001) - 1000 }),
		"wide":          stream(2000, func(int) int64 { return rng.Int64N(1<<40) - 1<<39 }),
		"offset-2^30":   stream(1_000_000, func(int) int64 { return 1<<30 + rng.Int64N(2) }),
		"large-n":       stream(3_000_000, func(int) int64 { return rng.Int64N(7) }),
		"constant":      stream(100_000, func(int) int64 { return 1<<30 + 5 }),
		"extremes":      {math.MaxInt64, math.MinInt64, -1, 3, math.MinInt64 + 1},        // Σx² ≈ 3·2¹²⁶
		"carry-squares": stream(7, func(i int) int64 { return int64(1)<<62 + int64(i) }), // Σx² ≈ 7·2¹²⁴
	}
	for name, xs := range cases {
		t.Run(name, func(t *testing.T) {
			var m IntMoments
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				m.Add(x)
				lo, hi = min(lo, x), max(hi, x)
			}
			w := m.Welford()
			mean, m2 := exactMoments(xs)
			if w.Count() != int64(len(xs)) || w.Min() != float64(lo) || w.Max() != float64(hi) {
				t.Fatalf("count/min/max = %d/%v/%v, want %d/%v/%v", w.Count(), w.Min(), w.Max(), len(xs), lo, hi)
			}
			if w.Mean() != mean || w.m2 != m2 {
				t.Fatalf("mean %v m2 %v, exact %v %v", w.Mean(), w.m2, mean, m2)
			}
		})
	}

	// The streaming float chain is not exact on the offset stream; the
	// integer moments are.
	var w Welford
	var m IntMoments
	for _, x := range cases["offset-2^30"] {
		w.Add(float64(x))
		m.Add(x)
	}
	exact := m.Welford()
	if w.Variance() == exact.Variance() {
		t.Fatalf("streaming Welford matched the exact variance %v: the stream is not adversarial", w.Variance())
	}
	_, m2 := exactMoments(cases["offset-2^30"])
	if want := m2 / float64(len(cases["offset-2^30"])-1); exact.Variance() != want {
		t.Fatalf("variance %v, exact %v", exact.Variance(), want)
	}
	if empty := (&IntMoments{}).Welford(); empty != (Welford{}) {
		t.Fatalf("empty stream converts to %+v", empty)
	}
}

// foldBlock folds xs into m the way a hot loop does: count, Σx, 128-bit Σx²,
// min and max kept in locals, one Fold per block. A block is cut early
// wherever the next x would overflow its int64 Σx, and an empty xs folds one
// empty block, carrying the sentinel min and max a loop starts from.
func foldBlock(m *IntMoments, xs []int64) {
	var n, sum int64
	var sqHi, sqLo, c uint64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range xs {
		if s := sum + x; (x > 0 && s < sum) || (x < 0 && s > sum) {
			m.Fold(n, sum, sqHi, sqLo, lo, hi)
			n, sum, sqHi, sqLo = 0, 0, 0, 0
			lo, hi = math.MaxInt64, math.MinInt64
		}
		a := uint64(x)
		if x < 0 {
			a = -a
		}
		h, l := bits.Mul64(a, a)
		sqLo, c = bits.Add64(sqLo, l, 0)
		sqHi += h + c
		n, sum = n+1, sum+x
		lo, hi = min(lo, x), max(hi, x)
	}
	m.Fold(n, sum, sqHi, sqLo, lo, hi)
}

// FuzzIntMomentsFold splits an int64 stream (data, read as little-endian
// words) into blocks whose lengths are the bytes of cuts, a zero byte being
// an empty block and the words left after the last cut one final block.
// Folding every block's (n, Σx, Σx², min, max) must leave IntMoments bit for
// bit where per-sample Add leaves it. Named seeds under testdata cover
// values near ±2³¹ and ±2⁶², empty blocks, extremes, and blocks whose Σx²
// carries past 2⁶⁴.
func FuzzIntMomentsFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		const maxValues = 4096
		xs := make([]int64, 0, min(len(data)/8, maxValues))
		for len(data) >= 8 && len(xs) < maxValues {
			xs = append(xs, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		var per, folded IntMoments
		for _, x := range xs {
			per.Add(x)
		}
		rest := xs
		for _, cut := range cuts {
			k := min(int(cut), len(rest))
			foldBlock(&folded, rest[:k])
			rest = rest[k:]
		}
		if len(rest) > 0 {
			foldBlock(&folded, rest)
		}
		if folded != per {
			t.Fatalf("folded %+v, per-sample %+v", folded, per)
		}
	})
}

// ExampleIntMoments shows the end-of-stream conversion.
func ExampleIntMoments() {
	var m IntMoments
	for _, x := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	w := m.Welford()
	fmt.Println(w.Count(), w.Mean(), w.Variance(), w.Min(), w.Max())
	// Output: 8 5 4.571428571428571 2 9
}
