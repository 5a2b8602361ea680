package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 1)
	b := New(42, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7, 7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams produced %d/64 identical outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9, 3).Split(5)
	b := New(9, 3).Split(5)
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split must be deterministic in (seed, index)")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(1, 1)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntNUniformity(t *testing.T) {
	g := New(3, 3)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[g.IntN(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestBool(t *testing.T) {
	g := New(4, 4)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", rate)
	}
}

func TestCategorical(t *testing.T) {
	g := New(8, 8)
	weights := []float64{1, 3, 0, 6}
	counts := make([]int, 4)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[g.Categorical(weights)]++
	}
	if counts[2] != 0 {
		t.Fatal("zero-weight bucket was sampled")
	}
	if math.Abs(float64(counts[1])/trials-0.3) > 0.01 {
		t.Fatalf("bucket 1 rate = %v, want 0.3", float64(counts[1])/trials)
	}
	if math.Abs(float64(counts[3])/trials-0.6) > 0.01 {
		t.Fatalf("bucket 3 rate = %v, want 0.6", float64(counts[3])/trials)
	}
}

func TestCategoricalPanics(t *testing.T) {
	g := New(9, 9)
	for _, bad := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", bad)
				}
			}()
			g.Categorical(bad)
		}()
	}
}

func TestTwoDistinct(t *testing.T) {
	g := New(10, 10)
	for i := 0; i < 10000; i++ {
		a, b := g.TwoDistinct(5)
		if a == b {
			t.Fatal("TwoDistinct returned equal indices")
		}
		if a < 0 || a >= 5 || b < 0 || b >= 5 {
			t.Fatalf("TwoDistinct out of range: %d %d", a, b)
		}
	}
	// All ordered pairs should be reachable and roughly uniform.
	counts := map[[2]int]int{}
	for i := 0; i < 40000; i++ {
		a, b := g.TwoDistinct(4)
		counts[[2]int{a, b}]++
	}
	if len(counts) != 12 {
		t.Fatalf("expected 12 ordered pairs, got %d", len(counts))
	}
	for p, c := range counts {
		if math.Abs(float64(c)-40000.0/12) > 300 {
			t.Fatalf("pair %v count %d deviates strongly", p, c)
		}
	}
}

func TestTwoDistinctPanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1).TwoDistinct(1)
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := New(11, 11)
	for trial := 0; trial < 1000; trial++ {
		s := g.SampleWithoutReplacement(10, 4)
		if len(s) != 4 {
			t.Fatalf("size = %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 10 {
				t.Fatalf("out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate %d in %v", v, s)
			}
			seen[v] = true
		}
	}
	// Full sample is a permutation.
	s := g.SampleWithoutReplacement(6, 6)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Fatal("full-size sample is not a permutation")
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(12, 12)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if seen[v] {
			t.Fatal("duplicate in Perm")
		}
		seen[v] = true
	}
}

func BenchmarkFloat64(b *testing.B) {
	g := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = g.Float64()
	}
}

func BenchmarkCategorical4(b *testing.B) {
	g := New(1, 1)
	w := []float64{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Categorical(w)
	}
}
