package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The flat kernel's contract is exact agreement with the naive left-to-right
// element loop (and hence RVec.Dot) — the unrolling must never change a
// single rounding. The test checks every length through the unroll boundary
// (0..4 remainders) with bit-level comparisons.

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() * math.Exp(r.NormFloat64())
	}
	return v
}

func TestFlatDotMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 19; n++ {
		for trial := 0; trial < 20; trial++ {
			a, b := randVec(r, n), randVec(r, n)
			var want float64
			for i := range a {
				want += a[i] * b[i]
			}
			if got := FlatDot(a, b); got != want {
				t.Fatalf("n=%d: FlatDot=%v, naive=%v", n, got, want)
			}
			if got, want := FlatDot(a, b), RVec(a).Dot(RVec(b)); got != want {
				t.Fatalf("n=%d: FlatDot=%v, RVec.Dot=%v", n, got, want)
			}
		}
	}
}

func TestFlatKernelShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension-mismatch panic")
		}
	}()
	FlatDot([]float64{1}, []float64{1, 2})
}
