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

// The RNG keeps the concrete *rand.PCG beside the *rand.Rand wrapping it and
// draws from either; they must be one stream — rand/v2.Rand holds no state
// of its own. Interleave direct draws (Uint64, Float64, Bool, IntN,
// TwoDistinct) with wrapped ones (NormFloat64, Perm, …) against a plain
// rand.Rand. IntN also runs at the bounds its branches split on: 1, every
// power of two, 2³² ± 1, 2⁶² + 1 (which rejects about a quarter of its
// draws) and MaxInt64.
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
		switch op := pick.IntN(10); op {
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
