package loadtest

import (
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

// FuzzBuildPlanRateProfile drives BuildPlan's Lewis–Shedler thinning loop
// over arbitrary float bits for a rate profile's base, diurnal amplitude and
// flash magnitude, arbitrary diurnal period and flash timing, and arbitrary
// seeds. For each input BuildPlan either returns an error — always, when
// the profile fails Validate — or its arrivals are non-decreasing and inside
// [0, Duration). The 10 µs window bounds the work: the envelope is at most
// one arrival per nanosecond, so a plan has about 10⁴ candidates at most.
// The named seeds under testdata/ cover NaN, ±Inf, the smallest subnormal,
// a base whose mean gap is the whole int64 clock, and an envelope at one
// arrival per nanosecond with an amplitude near 1.
func FuzzBuildPlanRateProfile(f *testing.F) {
	f.Add(math.Float64bits(1e8), math.Float64bits(0.6), math.Float64bits(6), int64(time.Microsecond), int64(0), int64(math.MaxInt64), uint64(42))
	f.Fuzz(func(t *testing.T, baseBits, ampBits, magBits uint64, period, flashAt, decay int64, seed uint64) {
		profile := workload.RateProfile{
			Base:          math.Float64frombits(baseBits),
			DiurnalAmp:    math.Float64frombits(ampBits),
			DiurnalPeriod: time.Duration(period),
			Flashes: []workload.Flash{{
				At: time.Duration(flashAt), Magnitude: math.Float64frombits(magBits), Decay: time.Duration(decay),
			}},
		}
		cfg := Config{
			Seed:      seed,
			Duration:  10 * time.Microsecond,
			Rate:      &profile,
			Scenarios: []Scenario{{Name: "info", Weight: 1, Info: true}},
			Sessions:  1,
		}
		plan, err := BuildPlan(cfg)
		if err != nil {
			return
		}
		if verr := profile.Validate(); verr != nil {
			t.Fatalf("BuildPlan accepted a profile Validate rejects: %v", verr)
		}
		last := time.Duration(0)
		for i, r := range plan.reqs {
			if r.at < last || r.at >= cfg.Duration {
				t.Fatalf("arrival %d at %v: want non-decreasing from %v and inside [0, %v)", i, r.at, last, cfg.Duration)
			}
			last = r.at
		}
	})
}
