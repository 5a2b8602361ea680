package entangle

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

func TestDefaultConfigsValid(t *testing.T) {
	if err := DefaultSource().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultQNIC().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSourceValidateCatchesErrors(t *testing.T) {
	bad := []SourceConfig{
		{PairRate: 0, BaseVisibility: 1, NPhotonFalloff: 0.5},
		{PairRate: 1, BaseVisibility: 1.2, NPhotonFalloff: 0.5},
		{PairRate: 1, BaseVisibility: 1, NPhotonFalloff: 0},
		{PairRate: 1, BaseVisibility: 1, NPhotonFalloff: 0.5, FiberLengthM: -1},
		{PairRate: 2e9, BaseVisibility: 1, NPhotonFalloff: 0.5}, // interval rounds to 0 ns
		// A fiber whose one-way delay overflows a time.Duration, and NaN.
		{PairRate: 1, BaseVisibility: 1, NPhotonFalloff: 0.5, FiberLengthM: 1e19},
		{PairRate: 1, BaseVisibility: 1, NPhotonFalloff: 0.5, FiberLengthM: math.NaN()},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

// TestSourceValidateRejectsNonFinite: NaN fails every comparison, so a guard
// of the shape x < lo || x > hi lets it through — and a NaN visibility or
// attenuation then loses every pair forever without an error.
func TestSourceValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*SourceConfig, float64){
		"PairRate":           func(c *SourceConfig, v float64) { c.PairRate = v },
		"BaseVisibility":     func(c *SourceConfig, v float64) { c.BaseVisibility = v },
		"NPhotonFalloff":     func(c *SourceConfig, v float64) { c.NPhotonFalloff = v },
		"FiberLengthM":       func(c *SourceConfig, v float64) { c.FiberLengthM = v },
		"AttenuationDBPerKm": func(c *SourceConfig, v float64) { c.AttenuationDBPerKm = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultSource()
			set(&c, v)
			if c.Validate() == nil {
				t.Errorf("%s = %v should be invalid", name, v)
			}
		}
	}
}

func TestInterval(t *testing.T) {
	c := DefaultSource()
	c.PairRate = 1e6
	if c.Interval() != time.Microsecond {
		t.Fatalf("interval = %v", c.Interval())
	}
}

func TestArmTransmission(t *testing.T) {
	c := DefaultSource()
	c.FiberLengthM = 50_000 // 50 km at 0.2 dB/km = 10 dB = 10% transmission
	c.AttenuationDBPerKm = 0.2
	if math.Abs(c.ArmTransmission()-0.1) > 1e-12 {
		t.Fatalf("transmission = %v, want 0.1", c.ArmTransmission())
	}
	// Both photons must survive: probability squares.
	if math.Abs(c.DeliveryProbability()-0.01) > 1e-12 {
		t.Fatalf("delivery = %v, want 0.01", c.DeliveryProbability())
	}
}

func TestDeliveredPairRate(t *testing.T) {
	c := DefaultSource()
	c.PairRate = 1e6
	c.FiberLengthM = 0
	if math.Abs(c.DeliveredPairRate()-1e6) > 1e-6 {
		t.Fatal("zero fiber should deliver at the generation rate")
	}
}

func TestRateForPartiesFalloff(t *testing.T) {
	c := DefaultSource()
	c.PairRate = 1e6
	c.NPhotonFalloff = 1e-3
	if math.Abs(c.RateForParties(2)-1e6) > 1e-6 {
		t.Fatal("2-party rate should be the pair rate")
	}
	// §3: multi-photon rates drop by orders of magnitude.
	if math.Abs(c.RateForParties(3)-1e3) > 1e-9 {
		t.Fatalf("3-photon rate = %v", c.RateForParties(3))
	}
	if math.Abs(c.RateForParties(4)-1) > 1e-9 {
		t.Fatalf("4-photon rate = %v", c.RateForParties(4))
	}
}

func TestRateForPartiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultSource().RateForParties(1)
}

func TestPropagationDelayKilometer(t *testing.T) {
	c := DefaultSource()
	c.FiberLengthM = 1000
	if c.PropagationDelay() != 5*time.Microsecond {
		t.Fatalf("1 km delay = %v, want 5µs", c.PropagationDelay())
	}
	// A fiber just under the Duration limit validates, with a positive delay.
	c.FiberLengthM = 1.8e18
	if err := c.Validate(); err != nil || c.PropagationDelay() <= 0 {
		t.Fatalf("1.8e18 m: err %v, delay %v", err, c.PropagationDelay())
	}
}

func TestDeliveryLatencyAddsHerald(t *testing.T) {
	c := DefaultSource()
	c.FiberLengthM = 1000
	// Default zero herald latency: delivery latency IS propagation — the
	// invariant that keeps every committed pre-knob artifact byte-identical.
	if c.DeliveryLatency() != c.PropagationDelay() {
		t.Fatalf("zero herald latency must leave delivery = propagation (%v vs %v)",
			c.DeliveryLatency(), c.PropagationDelay())
	}
	c.HeraldLatency = 3 * time.Microsecond
	if err := c.Validate(); err != nil {
		t.Fatalf("herald latency rejected: %v", err)
	}
	if c.DeliveryLatency() != 8*time.Microsecond {
		t.Fatalf("1 km + 3µs herald = %v, want 8µs", c.DeliveryLatency())
	}
	c.HeraldLatency = -time.Microsecond
	if err := c.Validate(); err == nil {
		t.Fatal("negative herald latency accepted")
	}
}

func TestServiceHonorsHeraldLatency(t *testing.T) {
	var engine netsim.Engine
	src := DefaultSource()
	src.FiberLengthM = 0 // isolate the herald term
	src.AttenuationDBPerKm = 0
	src.HeraldLatency = 40 * time.Microsecond
	pool := NewPool(DefaultQNIC(), 0)
	svc := StartService(&engine, src, pool, xrand.New(5, 1))
	// Run to just past the first generation tick (10µs at 1e5 pairs/s): the
	// pair is in flight, not yet usable.
	engine.RunUntil(src.Interval() + time.Microsecond)
	if _, ok := pool.TryConsume(engine.Now()); ok {
		t.Fatal("pair usable before the herald latency elapsed")
	}
	// After tick + herald it must have landed.
	engine.RunUntil(src.Interval() + src.HeraldLatency + time.Microsecond)
	if _, ok := pool.TryConsume(engine.Now()); !ok {
		t.Fatal("pair not delivered after the herald latency")
	}
	svc.Stop()
}

func TestPairVisibilityDecay(t *testing.T) {
	q := QNICConfig{StorageLimit: 100 * time.Microsecond, CoherenceT2: 50 * time.Microsecond}
	p := Pair{ArrivedAt: 0, V0: 1.0}
	if math.Abs(p.VisibilityAt(0, q)-1) > 1e-12 {
		t.Fatal("fresh pair should have full visibility")
	}
	// One T2 later: e^{-1}.
	v := p.VisibilityAt(50*time.Microsecond, q)
	if math.Abs(v-math.Exp(-1)) > 1e-12 {
		t.Fatalf("visibility after one T2 = %v", v)
	}
}

func TestPairVisibilityBeforeArrivalPanics(t *testing.T) {
	p := Pair{ArrivedAt: time.Millisecond, V0: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.VisibilityAt(0, DefaultQNIC())
}

func TestPairExpiry(t *testing.T) {
	q := QNICConfig{StorageLimit: 100 * time.Microsecond, CoherenceT2: time.Millisecond}
	p := Pair{ArrivedAt: 0, V0: 1}
	if p.Expired(100*time.Microsecond, q) {
		t.Fatal("pair at exactly the limit is still live")
	}
	if !p.Expired(101*time.Microsecond, q) {
		t.Fatal("pair past the limit must expire")
	}
}
