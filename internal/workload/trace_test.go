package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestParetoSampler(t *testing.T) {
	p := Pareto{Shape: 1.5, Scale: 2}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid Pareto rejected: %v", err)
	}
	rng := xrand.New(90, 1)
	const n = 200000
	var max float64
	exceed10 := 0
	for i := 0; i < n; i++ {
		x := p.Sample(rng)
		if x < p.Scale {
			t.Fatalf("Pareto sample %v below scale %v", x, p.Scale)
		}
		if x > max {
			max = x
		}
		if x > 10*p.Scale {
			exceed10++
		}
	}
	// P(X > 10·scale) = 10^-shape ≈ 0.0316 for shape 1.5.
	got := float64(exceed10) / n
	want := math.Pow(10, -p.Shape)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("tail probability %v, want ~%v", got, want)
	}
	// Heavy tail: the max over 2e5 draws should dwarf the scale.
	if max < 100*p.Scale {
		t.Fatalf("no heavy tail observed: max %v", max)
	}
	for _, bad := range []Pareto{{Shape: 0, Scale: 1}, {Shape: 1, Scale: 0}, {Shape: -1, Scale: 1},
		{Shape: 1, Scale: math.Inf(1)}, {Shape: math.Inf(1), Scale: 1}, {Shape: math.NaN(), Scale: 1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid Pareto %+v accepted", bad)
		}
	}
}

func TestRateProfileShape(t *testing.T) {
	p := RateProfile{
		Base:          1000,
		DiurnalAmp:    0.5,
		DiurnalPeriod: time.Second,
		Flashes:       []Flash{{At: 2 * time.Second, Magnitude: 3, Decay: 100 * time.Millisecond}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	// Sinusoid peak at t = period/4, trough at 3/4.
	if peak := p.Rate(250 * time.Millisecond); math.Abs(peak-1500) > 1 {
		t.Fatalf("diurnal peak %v, want 1500", peak)
	}
	if trough := p.Rate(750 * time.Millisecond); math.Abs(trough-500) > 1 {
		t.Fatalf("diurnal trough %v, want 500", trough)
	}
	// Flash peak: base·(1+amp·sin) + base·magnitude at onset.
	atFlash := p.Rate(2 * time.Second)
	if atFlash < 3000 {
		t.Fatalf("flash onset rate %v, want > 3000", atFlash)
	}
	// Decayed to ~e^-5 of the spike 500ms later.
	if late := p.Rate(2500 * time.Millisecond); late > 1600 {
		t.Fatalf("flash should have decayed by 5 time constants, rate %v", late)
	}
	// Envelope bounds every evaluated rate.
	env := p.MaxRate()
	for ms := 0; ms < 3000; ms += 7 {
		if r := p.Rate(time.Duration(ms) * time.Millisecond); r > env {
			t.Fatalf("rate %v at %dms exceeds envelope %v", r, ms, env)
		}
	}
	for name, bad := range map[string]RateProfile{
		"zero base":       {},
		"amp ≥ 1":         {Base: 1, DiurnalAmp: 1, DiurnalPeriod: time.Second},
		"amp, no period":  {Base: 1, DiurnalAmp: 0.5},
		"flash no decay":  {Base: 1, Flashes: []Flash{{Magnitude: 2}}},
		"negative flash":  {Base: 1, Flashes: []Flash{{Magnitude: -1, Decay: time.Second}}},
		"+Inf base":       {Base: math.Inf(1)},
		"NaN amp":         {Base: 1, DiurnalAmp: math.NaN(), DiurnalPeriod: time.Second},
		"+Inf flash":      {Base: 1, Flashes: []Flash{{Magnitude: math.Inf(1), Decay: time.Second}}},
		"NaN flash":       {Base: 1, Flashes: []Flash{{Magnitude: math.NaN(), Decay: time.Second}}},
		"envelope > 1/ns": {Base: 6e8, Flashes: []Flash{{Magnitude: 1, Decay: time.Second}}},
		"envelope +Inf":   {Base: 1e300, Flashes: []Flash{{Magnitude: 1e300, Decay: time.Second}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: expected a validation error", name)
		}
	}
}

func TestDiurnalMixModulatesPC(t *testing.T) {
	g := &DiurnalMix{PC: 0.5, Amp: 0.4, PeriodSlots: 1000}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid DiurnalMix rejected: %v", err)
	}
	rng := xrand.New(95, 1)
	const balancers = 50
	// Drive 40 cycles and fold slots onto one cycle by quarter.
	quarters := [4]int{}
	draws := [4]int{}
	for slot := 0; slot < 40000; slot++ {
		q := (slot % 1000) / 250
		for b := 0; b < balancers; b++ {
			if g.Next(b, rng).Type == TypeC {
				quarters[q]++
			}
			draws[q]++
		}
	}
	firstQ := float64(quarters[0]) / float64(draws[0]) // rising: ~0.5 + 0.25·amp
	secondQ := float64(quarters[1]) / float64(draws[1])
	fourthQ := float64(quarters[3]) / float64(draws[3])
	if secondQ-fourthQ < 0.4 {
		t.Fatalf("diurnal swing missing: Q2 %.3f vs Q4 %.3f", secondQ, fourthQ)
	}
	if math.Abs(firstQ-0.75) > 0.05 {
		t.Fatalf("rising quarter PC %.3f, want ~0.75", firstQ)
	}
	// Clone starts back at slot 0.
	c := g.CloneGenerator().(*DiurnalMix)
	rngA, rngB := xrand.New(96, 1), xrand.New(96, 1)
	g.Reset()
	for i := 0; i < 2000; i++ {
		if g.Next(i%balancers, rngA) != c.Next(i%balancers, rngB) {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
	for name, bad := range map[string]*DiurnalMix{
		"PC > 1":     {PC: 1.5, Amp: 0.1, PeriodSlots: 10},
		"neg amp":    {PC: 0.5, Amp: -0.1, PeriodSlots: 10},
		"zero slots": {PC: 0.5, Amp: 0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: expected a validation error", name)
		}
	}
}

// TestCorrelatedBurstsCouplesBalancers: at high Corr, distinct balancers'
// type draws must agree far more often than independent Bursty phases
// allow; at Corr = 0 they fall back to near-independence.
func TestCorrelatedBurstsCouplesBalancers(t *testing.T) {
	agreeRate := func(corr float64, salt uint64) float64 {
		g := NewCorrelatedBursts(0.95, 0.05, 0.02, corr, 2)
		if err := g.Validate(); err != nil {
			t.Fatalf("valid CorrelatedBursts rejected: %v", err)
		}
		rng := xrand.New(97, salt)
		agree, n := 0, 20000
		for slot := 0; slot < n; slot++ {
			a := g.Next(0, rng)
			b := g.Next(1, rng)
			if a.Type == b.Type {
				agree++
			}
		}
		return float64(agree) / float64(n)
	}
	coupled := agreeRate(1, 1)
	independent := agreeRate(0, 2)
	if coupled-independent < 0.1 {
		t.Fatalf("correlation knob has no effect: corr=1 agree %.3f vs corr=0 agree %.3f",
			coupled, independent)
	}
	if coupled < 0.85 {
		t.Fatalf("fully correlated balancers agree only %.3f of slots", coupled)
	}
	// Clone parity.
	g := NewCorrelatedBursts(0.9, 0.1, 0.05, 0.8, 4)
	c := g.CloneGenerator().(*CorrelatedBursts)
	rngA, rngB := xrand.New(98, 1), xrand.New(98, 1)
	for slot := 0; slot < 500; slot++ {
		for b := 0; b < 4; b++ {
			if g.Next(b, rngA) != c.Next(b, rngB) {
				t.Fatalf("clone diverged at slot %d balancer %d", slot, b)
			}
		}
	}
	if err := (&CorrelatedBursts{Corr: 2}).Validate(); err == nil {
		t.Fatal("corr > 1 accepted")
	}
}

func TestModulatedArrivalsFlashCrowd(t *testing.T) {
	// Arrival counts follow the integral of λ(t). With a 5× flash decaying
	// over 50ms, the 100ms window after onset integrates to
	// 1 + 5·(50/100)·(1-e⁻²) ≈ 3.16× the quiet window before it.
	profile := *FlashProfile(1000, 500*time.Millisecond, 5, 50*time.Millisecond)
	integrate := func(from, to time.Duration) float64 {
		const step = time.Microsecond
		var sum float64
		for at := from; at < to; at += step {
			sum += profile.Rate(at+step/2) * step.Seconds()
		}
		return sum
	}
	before := integrate(400*time.Millisecond, 500*time.Millisecond)
	during := integrate(500*time.Millisecond, 600*time.Millisecond)
	if math.Abs(before-100) > 1e-6 {
		t.Fatalf("quiet 100ms window expects %v arrivals, want 100", before)
	}
	want := 1 + 5*0.5*(1-math.Exp(-2))
	if got := during / before; math.Abs(got-want) > 1e-3 {
		t.Fatalf("flash window carries %.4f× the quiet window, want %.4f×", got, want)
	}
}
