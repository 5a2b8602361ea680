package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/xrand"
)

// FuzzArrivalGenerators drives PoissonArrivals over arbitrary float bits for
// the rate and arbitrary seeds. For each input Next either panics on a rate
// that is not positive, or its first 256 arrivals are non-negative and
// non-decreasing. The named seeds under testdata/ cover NaN, ±Inf, the
// smallest subnormal, a rate whose mean gap is the whole int64 clock, and one
// arrival per nanosecond. (The thinning loop for rate profiles is fuzzed by
// loadtest's FuzzBuildPlanRateProfile.)
func FuzzArrivalGenerators(f *testing.F) {
	f.Add(math.Float64bits(2e4), uint64(42))
	f.Fuzz(func(t *testing.T, rateBits, seed uint64) {
		rate := math.Float64frombits(rateBits)
		p := &PoissonArrivals{Rate: rate}
		rng := xrand.New(seed, 1)
		if !(rate > 0) {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v accepted", rate)
				}
			}()
			p.Next(rng)
			return
		}
		last := time.Duration(0)
		for i := 0; i < 256; i++ {
			at := p.Next(rng)
			if at < last {
				t.Fatalf("arrival %d at %v, before %v", i, at, last)
			}
			last = at
		}
	})
}
