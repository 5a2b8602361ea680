package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/xrand"
)

// FuzzArrivalGenerators drives PoissonArrivals and ModulatedArrivals over
// arbitrary float bits for the rate, the profile's base, diurnal amplitude
// and flash magnitude, and arbitrary seeds. For each input the generator
// either rejects it — Next panics on a rate that is not positive,
// Validate errors on a profile and Next panics with it — or its first 256
// arrivals are non-negative and non-decreasing.
//
// The flash starts at 0 and decays over the whole representable clock, and
// the diurnal period is 1 µs, so the thinning acceptance λ(t)/MaxRate stays
// bounded away from 0 except in troughs the clock crosses within a few
// candidates: every accepted profile yields its arrivals in bounded work.
// The named seeds under testdata/ cover NaN, ±Inf, the smallest subnormal,
// a rate whose mean gap is the whole int64 clock, and an envelope at one
// arrival per nanosecond with an amplitude near 1.
func FuzzArrivalGenerators(f *testing.F) {
	f.Add(math.Float64bits(2e4), math.Float64bits(2000), math.Float64bits(0.6), math.Float64bits(6), uint64(42))
	f.Fuzz(func(t *testing.T, rateBits, baseBits, ampBits, magBits, seed uint64) {
		rate := math.Float64frombits(rateBits)
		profile := RateProfile{
			Base:          math.Float64frombits(baseBits),
			DiurnalAmp:    math.Float64frombits(ampBits),
			DiurnalPeriod: time.Microsecond,
			Flashes:       []Flash{{Magnitude: math.Float64frombits(magBits), Decay: math.MaxInt64}},
		}
		p := &PoissonArrivals{Rate: rate}
		checkArrivals(t, "poisson", rate > 0, func(rng *xrand.RNG) time.Duration { return p.Next(rng) }, seed)
		m := &ModulatedArrivals{Profile: profile}
		checkArrivals(t, "modulated", profile.Validate() == nil, func(rng *xrand.RNG) time.Duration { return m.Next(rng) }, seed)
	})
}

// checkArrivals draws 256 arrivals from next and fails unless they are
// non-negative and non-decreasing (valid) or the first draw panics (not
// valid).
func checkArrivals(t *testing.T, name string, valid bool, next func(*xrand.RNG) time.Duration, seed uint64) {
	t.Helper()
	rng := xrand.New(seed, 1)
	if !valid {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: an input its guard rejects was accepted", name)
			}
		}()
		next(rng)
		return
	}
	last := time.Duration(0)
	for i := 0; i < 256; i++ {
		at := next(rng)
		if at < last {
			t.Fatalf("%s: arrival %d at %v, before %v", name, i, at, last)
		}
		last = at
	}
}
