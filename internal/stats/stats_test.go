package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWelfordKnown(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Population variance of this set is 4; sample variance is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3)
	if w.Variance() != 0 {
		t.Fatal("single sample variance must be 0")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var all, left, right Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 1
		all.Add(x)
		if i%2 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if math.Abs(left.Mean()-all.Mean()) > 1e-10 {
		t.Fatalf("merged mean %v != %v", left.Mean(), all.Mean())
	}
	if math.Abs(left.Variance()-all.Variance()) > 1e-10 {
		t.Fatalf("merged variance %v != %v", left.Variance(), all.Variance())
	}
	if left.Min() != all.Min() || left.Max() != all.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed accumulator")
	}
	var c Welford
	c.Merge(&a) // merging into empty copies
	if c.Count() != 1 || c.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
}

func TestWelfordShiftInvarianceProperty(t *testing.T) {
	// Variance is invariant under a constant shift.
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		var a, b Welford
		for _, x := range xs {
			x = 10 * math.Tanh(x/10)
			a.Add(x)
			b.Add(x + 1000)
		}
		return math.Abs(a.Variance()-b.Variance()) < 1e-6*(1+a.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProportionRateAndWilson(t *testing.T) {
	var p Proportion
	p.AddBatch(750, 1000)
	if math.Abs(p.Rate()-0.75) > 1e-12 {
		t.Fatalf("rate = %v", p.Rate())
	}
	lo, hi := p.Wilson95()
	if lo >= 0.75 || hi <= 0.75 {
		t.Fatalf("Wilson interval [%v,%v] must cover the point estimate", lo, hi)
	}
	if hi-lo > 0.06 {
		t.Fatalf("interval too wide for n=1000: %v", hi-lo)
	}
	if !p.Contains95(0.74) {
		t.Fatal("0.74 should be within the interval for 750/1000")
	}
	if p.Contains95(0.5) {
		t.Fatal("0.5 should be far outside the interval")
	}
}

func TestProportionEmpty(t *testing.T) {
	var p Proportion
	lo, hi := p.Wilson95()
	if lo != 0 || hi != 1 {
		t.Fatal("empty proportion should return the vacuous interval")
	}
}

func TestProportionAdd(t *testing.T) {
	var p Proportion
	p.Add(true)
	p.Add(false)
	p.Add(true)
	if p.Successes() != 2 || p.Trials() != 3 {
		t.Fatalf("successes/trials = %d/%d", p.Successes(), p.Trials())
	}
}

func TestSeriesKnee(t *testing.T) {
	var s Series
	s.Append(0.5, 1, 0)
	s.Append(1.0, 2, 0)
	s.Append(1.5, 10, 0)
	// Crossing 6 happens between x=1.0 (y=2) and x=1.5 (y=10): x = 1.25.
	if k := s.KneeX(6); math.Abs(k-1.25) > 1e-12 {
		t.Fatalf("knee = %v, want 1.25", k)
	}
	if !math.IsNaN(s.KneeX(100)) {
		t.Fatal("knee beyond data should be NaN")
	}
	// Threshold below first point returns first x.
	if k := s.KneeX(0.5); k != 0.5 {
		t.Fatalf("knee below data = %v", k)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	var small, large Welford
	for i := 0; i < 100; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatal("CI must shrink as n grows")
	}
}
