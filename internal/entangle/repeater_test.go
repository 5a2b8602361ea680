package entangle

import (
	"math"
	"testing"
)

func chain(segments int, segArmKm float64) RepeaterChain {
	src := DefaultSource()
	src.FiberLengthM = segArmKm * 1000
	return RepeaterChain{Segments: segments, Source: src, BSMSuccess: 0.5}
}

func TestRepeaterChainValidate(t *testing.T) {
	if err := chain(3, 10).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := chain(0, 10)
	if bad.Validate() == nil {
		t.Fatal("zero segments should fail")
	}
	bad2 := chain(2, 10)
	bad2.BSMSuccess = 0
	if bad2.Validate() == nil {
		t.Fatal("zero BSM success should fail")
	}
}

func TestTotalLength(t *testing.T) {
	c := chain(4, 25) // 4 segments × 2 arms × 25 km
	if math.Abs(c.TotalLengthM()-200_000) > 1e-6 {
		t.Fatalf("total length %v", c.TotalLengthM())
	}
}

func TestEndToEndVisibilityCompounds(t *testing.T) {
	c := chain(3, 10)
	c.Source.BaseVisibility = 0.95
	want := 0.95 * 0.95 * 0.95
	if math.Abs(c.EndToEndVisibility()-want) > 1e-12 {
		t.Fatalf("visibility %v, want %v", c.EndToEndVisibility(), want)
	}
}

func TestEndToEndRateSwapPenalty(t *testing.T) {
	c1 := chain(1, 10)
	c3 := chain(3, 10)
	// Same per-segment delivery; 2 extra swaps at 1/2 each → 1/4 the rate.
	if math.Abs(c3.EndToEndRate()/c1.EndToEndRate()-0.25) > 1e-9 {
		t.Fatalf("rate ratio %v, want 0.25", c3.EndToEndRate()/c1.EndToEndRate())
	}
}

// TestRepeaterBeatsDirectAtDistance: at metro scale direct wins; at long
// haul the exponential fiber loss dominates and the chain wins — the
// crossover that justifies repeaters.
func TestRepeaterBeatsDirectAtDistance(t *testing.T) {
	src := DefaultSource()
	// 20 km total: direct transmission is cheap; a 2-segment chain pays the
	// BSM penalty for nothing.
	if s := CrossoverSegments(src, 20_000, 0.5, 8); s != 0 {
		t.Fatalf("no repeater should win at 20 km, got %d segments", s)
	}
	// 400 km total: direct suffers 10^(-0.2·200/10) per arm — hopeless;
	// some chain must win.
	s := CrossoverSegments(src, 400_000, 0.5, 16)
	if s == 0 {
		t.Fatal("a repeater chain should win at 400 km")
	}
	c := chain(s, 400.0/float64(2*s))
	if !c.RepeaterWins() {
		t.Fatal("CrossoverSegments returned a non-winning configuration")
	}
	// E11's crossover line: at 300 km the first winning chain has 2 segments.
	if s := CrossoverSegments(src, 300_000, 0.5, 16); s != 2 {
		t.Fatalf("crossover at 300 km: %d segments, want 2", s)
	}
	// The fastest of {direct, 2, 4, 8 segments} by total distance, as
	// EXPERIMENTS.md §E11 states it: the best chain lengthens with distance.
	for _, tc := range []struct {
		km   float64
		best int
	}{{20, 1}, {50, 2}, {100, 2}, {200, 4}, {400, 4}, {800, 8}} {
		best, bestRate := 0, 0.0
		for _, segs := range []int{1, 2, 4, 8} {
			if r := chain(segs, tc.km/float64(2*segs)).EndToEndRate(); r > bestRate {
				best, bestRate = segs, r
			}
		}
		if best != tc.best {
			t.Errorf("%g km: fastest is %d segments, want %d", tc.km, best, tc.best)
		}
	}
}

// TestSwapWernerMultiplicativeLaw verifies fact 1 against the exact
// simulator: swapping Werner(v1) and Werner(v2) gives Werner(v1·v2).
func TestSwapWernerMultiplicativeLaw(t *testing.T) {
	for _, tc := range []struct{ v1, v2 float64 }{
		{1, 1}, {0.9, 0.9}, {0.95, 0.9}, {0.95, 0.8}, {1, 0.7}, {0.6, 0.5},
	} {
		_, veff := SwapWernerPairs(tc.v1, tc.v2)
		want := tc.v1 * tc.v2
		if math.Abs(veff-want) > 1e-9 {
			t.Fatalf("swap(%v, %v): effective visibility %v, want %v",
				tc.v1, tc.v2, veff, want)
		}
	}
}

func TestSwapPerfectPairsGivesPerfectFidelity(t *testing.T) {
	f, _ := SwapWernerPairs(1, 1)
	if math.Abs(f-1) > 1e-9 {
		t.Fatalf("fidelity %v, want 1", f)
	}
}

// TestChainVisibilityStaysAboveCritical: an engineering check — how many
// 0.98-visibility segments can be chained before CHSH advantage dies
// (V^n > 1/√2 ⇒ n < ln(1/√2)/ln(0.98) ≈ 17.2).
func TestChainVisibilityStaysAboveCritical(t *testing.T) {
	crit := 1 / math.Sqrt2
	c17 := chain(17, 10)
	c18 := chain(18, 10)
	if c17.EndToEndVisibility() <= crit {
		t.Fatalf("17 segments: %v should still beat critical %v", c17.EndToEndVisibility(), crit)
	}
	if c18.EndToEndVisibility() > crit {
		t.Fatalf("18 segments: %v should fall below critical %v", c18.EndToEndVisibility(), crit)
	}
}

func BenchmarkSwapWernerPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SwapWernerPairs(0.95, 0.9)
	}
}
