package xrand

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Bool is one draw and decides as rand/v2's Float64() < p does, for every
// kind of p.
func TestBoolMatchesFloatCompareOnStream(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.2, 0.5, 1.0 / 3, 0.999, 1, 1.5, -0.5, math.NaN()} {
		g, ref := New(11, 4), rand.New(rand.NewPCG(11, 4))
		for i := 0; i < 20000; i++ {
			if got, want := g.Bool(p), ref.Float64() < p; got != want {
				t.Fatalf("p=%v draw %d: Bool %v, Float64()<p %v", p, i, got, want)
			}
		}
		if x, y := g.Uint64(), ref.Uint64(); x != y {
			t.Fatalf("p=%v: Bool consumed a different number of words than Float64", p)
		}
	}
}

// The RNG owns its PCG state beside the *rand.Rand wrapping it and draws
// from either; they must be one stream — rand/v2.Rand holds no state of its
// own — and that stream must be rand/v2's PCG. Interleave direct draws
// (Uint64, Float64, Bool, BoolMask, IntN, TwoDistinct) with wrapped ones
// (NormFloat64, Perm, …) against a plain rand.Rand over rand.NewPCG. IntN
// also runs at the bounds its branches split on: 1, every power of two,
// 2³² ± 1, 2⁶² + 1 (which rejects about a quarter of its draws) and
// MaxInt64.
//
// Mutant killed: dropping IntN's rejection loop.
func TestDirectPCGMatchesRand(t *testing.T) {
	const seed, salt = 2024, 0xfeed
	g := New(seed, salt)
	ref := rand.New(rand.NewPCG(seed, salt))
	pick := rand.New(rand.NewPCG(1, 2))
	bounds := []int{1, 1<<32 - 1, 1<<32 + 1, 1<<62 + 1, math.MaxInt64}
	for k := 1; k <= 62; k++ {
		bounds = append(bounds, 1<<k)
	}
	for step := 0; step < 100000; step++ {
		switch op := pick.IntN(11); op {
		case 0:
			if a, b := g.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("step %d Uint64: %d vs %d", step, a, b)
			}
		case 1:
			if a, b := g.Float64(), ref.Float64(); a != b {
				t.Fatalf("step %d Float64: %v vs %v", step, a, b)
			}
		case 2:
			n := 1 + pick.IntN(1000)
			if a, b := g.IntN(n), ref.IntN(n); a != b {
				t.Fatalf("step %d IntN(%d): %d vs %d", step, n, a, b)
			}
		case 3:
			if a, b := g.NormFloat64(), ref.NormFloat64(); a != b {
				t.Fatalf("step %d NormFloat64: %v vs %v", step, a, b)
			}
		case 4:
			n := pick.IntN(6)
			a, b := g.Perm(n), ref.Perm(n)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d Perm(%d): %v vs %v", step, n, a, b)
				}
			}
		case 5:
			p := pick.Float64()
			if a, b := g.Bool(p), ref.Float64() < p; a != b {
				t.Fatalf("step %d Bool(%v): %v vs %v", step, p, a, b)
			}
		case 6:
			if a, b := g.ExpFloat64(), ref.ExpFloat64(); a != b {
				t.Fatalf("step %d ExpFloat64: %v vs %v", step, a, b)
			}
		case 7:
			// Split reads one parent word; the child is New(word, mix(i)).
			i := pick.Uint64()
			child, want := g.Split(i), rand.New(rand.NewPCG(ref.Uint64(), mix(i)))
			if a, b := child.Uint64(), want.Uint64(); a != b {
				t.Fatalf("step %d Split(%d): child %d vs %d", step, i, a, b)
			}
		case 8:
			n := bounds[pick.IntN(len(bounds))]
			if a, b := g.IntN(n), ref.IntN(n); a != b {
				t.Fatalf("step %d IntN(%d): %d vs %d", step, n, a, b)
			}
		case 9:
			n := 2 + pick.IntN(50)
			a0, a1 := g.TwoDistinct(n)
			b0, b1 := ref.IntN(n), ref.IntN(n-1)
			if b1 >= b0 {
				b1++
			}
			if a0 != b0 || a1 != b1 {
				t.Fatalf("step %d TwoDistinct(%d): %d,%d vs %d,%d", step, n, a0, a1, b0, b1)
			}
		case 10:
			n, p := 1+pick.IntN(200), pick.Float64()
			var mask [4]uint64
			g.BoolMask(p, mask[:], n)
			for i := 0; i < n; i++ {
				if a, b := mask[i/64]>>(i%64)&1 == 1, ref.Float64() < p; a != b {
					t.Fatalf("step %d BoolMask(%v, %d) bit %d: %v vs %v", step, p, n, i, a, b)
				}
			}
		}
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntN(%d) did not panic", n)
				}
			}()
			g.IntN(n)
		}()
	}
	d, want := Derive(77, 3), rand.New(rand.NewPCG(77, mix(3)))
	for i := 0; i < 100; i++ {
		if a, b := d.Float64(), want.Float64(); a != b {
			t.Fatalf("Derive draw %d: %v vs %v", i, a, b)
		}
	}
}

// boolMaskCases are the probabilities BoolMask's threshold splits on: the
// clamped ends (NaN, negative, 0, 1, above 1), the smallest positive
// threshold (2⁻⁵³), the largest below 2⁵³ (1 − 2⁻⁵³), and 0.9 with its
// predecessor, whose products with 2⁵³ are not integers.
var boolMaskCases = []float64{0, 0x1p-53, 0.3, 0.5, math.Nextafter(0.9, 0), 0.9, 1 - 0x1p-53, 1, 1.5, -0.1, math.NaN()}

// checkBoolMask fills a mask of n draws from New(seed, salt) and checks it
// against n calls of Bool(p) on a twin stream: the bits agree, the bits at or
// past n in the words written are 0, and both streams end on the same word.
func checkBoolMask(t *testing.T, seed, salt uint64, p float64, n int) {
	t.Helper()
	g, twin := New(seed, salt), New(seed, salt)
	words := (n + 63) / 64
	mask := make([]uint64, words+1)
	for i := range mask {
		mask[i] = ^uint64(0) // stale bits BoolMask must clear or leave past its words
	}
	g.BoolMask(p, mask, n)
	for i := 0; i < n; i++ {
		if got, want := mask[i/64]>>(i%64)&1 == 1, twin.Bool(p); got != want {
			t.Fatalf("p=%v n=%d: bit %d is %v, Bool drew %v", p, n, i, got, want)
		}
	}
	if n%64 != 0 && mask[words-1]>>(n%64) != 0 {
		t.Fatalf("p=%v n=%d: bits past n set in the last word: %#x", p, n, mask[words-1])
	}
	if mask[words] != ^uint64(0) {
		t.Fatalf("p=%v n=%d: BoolMask wrote word %d past the %d it needs", p, n, words, words)
	}
	if a, b := g.Uint64(), twin.Uint64(); a != b {
		t.Fatalf("p=%v n=%d: BoolMask left the stream on a different word than %d Bool calls", p, n, n)
	}
}

// BoolMask is n calls of Bool(p), bit for bit, at every threshold edge and
// every word boundary a 256-tick chunk can end on. A random stream almost
// never draws the one 53-bit value next to the threshold, so the threshold
// is also checked there: the draw just below it passes Float64() < p, the
// draw at it fails.
func TestBoolMaskMatchesBool(t *testing.T) {
	for _, p := range append(boolMaskCases, 1e-300, 0x1p-60, 0.1) {
		th := boolThreshold(p)
		if th > 1<<53 || th > 0 && !(float64(th-1)/(1<<53) < p) || th < 1<<53 && float64(th)/(1<<53) < p {
			t.Fatalf("p=%v: threshold %d is not the count of 53-bit draws below p", p, th)
		}
		for _, n := range []int{1, 63, 64, 65, 255, 256} {
			checkBoolMask(t, 31, 7, p, n)
		}
	}
}

// FuzzBoolMask checks BoolMask against Bool for any stream, probability
// (pBits read as a float64, NaNs and infinities included) and length.
func FuzzBoolMask(f *testing.F) {
	f.Add(uint64(1), uint64(2), math.Float64bits(0.3), uint16(256))
	f.Fuzz(func(t *testing.T, seed, salt, pBits uint64, n uint16) {
		checkBoolMask(t, seed, salt, math.Float64frombits(pBits), 1+int(n%512))
	})
}

// A short-lived stream stays on the stack: Derive(base, i).Uint64(), the
// seeding idiom of every parallel fan-out, allocates nothing.
func TestDerivedDrawAllocs(t *testing.T) {
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() { sink += Derive(sink, 3).Uint64() }); avg != 0 {
		t.Fatalf("Derive(…).Uint64() allocates %v per call", avg)
	}
}
