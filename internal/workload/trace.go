package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/xrand"
)

// This file holds the trace-shaped generators (ROADMAP item 4): diurnal
// rate/mix modulation, flash crowds, heavy-tailed sizes and cross-balancer-
// correlated bursts. Real request streams are none of the stationary
// processes the base experiments use — popularity follows daily cycles,
// launches and incidents produce flash crowds, service demand is
// Pareto-tailed, and type mixes shift everywhere at once when a global
// event lands. Every generator here draws all of its randomness from the
// caller's xrand stream, so sharded and parallel runs stay byte-identical.

// compile-time interface checks for the stateful generators.
var (
	_ Generator = (*Bursty)(nil)
	_ Cloner    = (*Bursty)(nil)
	_ Generator = (*DiurnalMix)(nil)
	_ Cloner    = (*DiurnalMix)(nil)
	_ Generator = (*CorrelatedBursts)(nil)
	_ Cloner    = (*CorrelatedBursts)(nil)
	_ Validator = MultiClass{}
)

// ---------------------------------------------------------------------------
// Heavy-tailed sizes.

// Pareto samples from a Pareto(shape, scale) law: P(X > x) = (scale/x)^shape
// for x ≥ scale. Shapes ≤ 2 have infinite variance — the classic
// heavy-tailed service-time regime where mean-based provisioning fails.
type Pareto struct {
	Shape float64 // tail exponent α (> 0); smaller is heavier
	Scale float64 // minimum value x_m (> 0)
}

// Sample draws by inversion: scale · U^(−1/shape).
func (p Pareto) Sample(rng *xrand.RNG) float64 {
	u := 1 - rng.Float64() // (0, 1]: avoids the pole at u = 0
	return p.Scale * math.Pow(u, -1/p.Shape)
}

// Validate checks the law's parameters: both positive and finite.
func (p Pareto) Validate() error {
	if !(p.Shape > 0) || !(p.Scale > 0) || math.IsInf(p.Shape, 1) || math.IsInf(p.Scale, 1) {
		return fmt.Errorf("workload: Pareto needs positive, finite shape and scale (shape %v, scale %v)", p.Shape, p.Scale)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Time-varying arrival intensity: diurnal modulation and flash crowds.

// Flash is one flash crowd: at time At the arrival rate jumps by
// Magnitude × base and decays exponentially with constant Decay — the
// launch/incident/thundering-herd shape.
type Flash struct {
	At        time.Duration `json:"at_ns"`
	Magnitude float64       `json:"magnitude"` // peak extra rate, in multiples of Base
	Decay     time.Duration `json:"decay_ns"`
}

// RateProfile is a deterministic time-varying arrival intensity λ(t):
// a base rate, an optional diurnal sinusoid, and any number of flash
// crowds. It is pure data (JSON-able); loadtest.BuildPlan turns it into
// arrivals by Lewis–Shedler thinning.
type RateProfile struct {
	// Base is the stationary rate in requests/second.
	Base float64 `json:"base_rps"`
	// DiurnalAmp ∈ [0, 1) scales a sinusoid: λ gains a factor
	// 1 + DiurnalAmp·sin(2πt/DiurnalPeriod).
	DiurnalAmp    float64       `json:"diurnal_amp,omitempty"`
	DiurnalPeriod time.Duration `json:"diurnal_period_ns,omitempty"`
	// Flashes are additive flash crowds on top of the (modulated) base.
	Flashes []Flash `json:"flashes,omitempty"`
}

// Rate evaluates λ(t) in requests/second.
func (p RateProfile) Rate(t time.Duration) float64 {
	r := p.Base
	if p.DiurnalAmp != 0 && p.DiurnalPeriod > 0 {
		r *= 1 + p.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(p.DiurnalPeriod))
	}
	for _, f := range p.Flashes {
		if t >= f.At && f.Decay > 0 {
			r += p.Base * f.Magnitude * math.Exp(-float64(t-f.At)/float64(f.Decay))
		}
	}
	return r
}

// MaxRate returns an upper bound on λ(t) over all t — the thinning
// envelope. It is a bound, not a supremum: overlapping flashes are summed
// at their peaks.
func (p RateProfile) MaxRate() float64 {
	r := p.Base * (1 + p.DiurnalAmp)
	for _, f := range p.Flashes {
		r += p.Base * f.Magnitude
	}
	return r
}

// Validate checks the profile is a usable intensity. Guards read !(in range)
// so a NaN fails them; an envelope above one arrival per nanosecond leaves
// thinning no gap to advance the clock by.
func (p RateProfile) Validate() error {
	if !(p.Base > 0 && p.Base <= math.MaxFloat64) {
		return fmt.Errorf("workload: rate profile needs a positive, finite base rate (got %v)", p.Base)
	}
	if !(p.DiurnalAmp >= 0 && p.DiurnalAmp < 1) {
		return fmt.Errorf("workload: diurnal amplitude must lie in [0,1) (got %v)", p.DiurnalAmp)
	}
	if p.DiurnalAmp > 0 && p.DiurnalPeriod <= 0 {
		return fmt.Errorf("workload: diurnal modulation needs a positive period")
	}
	for i, f := range p.Flashes {
		if !(f.Magnitude >= 0 && f.Magnitude <= math.MaxFloat64) {
			return fmt.Errorf("workload: flash %d magnitude %v must be finite and non-negative", i, f.Magnitude)
		}
		if f.Magnitude > 0 && f.Decay <= 0 {
			return fmt.Errorf("workload: flash %d needs a positive decay constant", i)
		}
		if f.At < 0 {
			return fmt.Errorf("workload: flash %d starts before t=0", i)
		}
	}
	if r := p.MaxRate(); !(r <= float64(time.Second)) {
		return fmt.Errorf("workload: rate profile peaks at %v/s, above one arrival per nanosecond", r)
	}
	return nil
}

// DiurnalProfile is the convenience constructor for a plain day/night
// cycle: base rate, relative amplitude, cycle period.
func DiurnalProfile(base, amp float64, period time.Duration) *RateProfile {
	return &RateProfile{Base: base, DiurnalAmp: amp, DiurnalPeriod: period}
}

// FlashProfile is the convenience constructor for a stationary stream hit
// by one flash crowd.
func FlashProfile(base float64, at time.Duration, magnitude float64, decay time.Duration) *RateProfile {
	return &RateProfile{Base: base, Flashes: []Flash{{At: at, Magnitude: magnitude, Decay: decay}}}
}

// ---------------------------------------------------------------------------
// Slot-based mix modulation for the queueing simulator.

// slotTracker advances a slot counter from the Next call pattern the
// simulator guarantees: within one slot, Run asks every balancer in
// ascending order, so a balancer index ≤ the previous one marks a new slot.
// (A single-balancer loop degenerates to one slot per call, which is also
// the right reading.)
type slotTracker struct {
	slot    int
	prev    int
	started bool
}

// advance returns the slot the incoming call belongs to.
func (s *slotTracker) advance(balancer int) int {
	if s.started && balancer <= s.prev {
		s.slot++
	}
	s.started = true
	s.prev = balancer
	return s.slot
}

func (s *slotTracker) reset() { *s = slotTracker{} }

// DiurnalMix modulates the type-C probability sinusoidally over slots:
// PC(slot) = PC + Amp·sin(2π·slot/PeriodSlots), clamped to [0, 1]. It is
// the mix-side face of the diurnal cycle — day traffic skews toward cache-
// friendly type-C work, night traffic toward exclusive batch jobs — and it
// shifts every balancer's mix TOGETHER, unlike per-balancer Bursty phases.
//
// Stateful (slot counter): share between runs only as a prototype; Run
// loops clone it via CloneGenerator.
type DiurnalMix struct {
	PC          float64 // midline P(type-C)
	Amp         float64 // sinusoid amplitude
	PeriodSlots int     // slots per full cycle

	clock slotTracker
}

// Next draws a task for the balancer in the tracked slot.
func (g *DiurnalMix) Next(balancer int, rng *xrand.RNG) Task {
	slot := g.clock.advance(balancer)
	pc := g.PC + g.Amp*math.Sin(2*math.Pi*float64(slot)/float64(g.PeriodSlots))
	if pc < 0 {
		pc = 0
	} else if pc > 1 {
		pc = 1
	}
	if rng.Bool(pc) {
		return Task{Type: TypeC, Class: 1}
	}
	return Task{Type: TypeE, Class: 0}
}

// Reset rewinds the slot clock.
func (g *DiurnalMix) Reset() { g.clock.reset() }

// CloneGenerator returns a fresh instance at slot zero.
func (g *DiurnalMix) CloneGenerator() Generator {
	return &DiurnalMix{PC: g.PC, Amp: g.Amp, PeriodSlots: g.PeriodSlots}
}

// Validate checks the modulation parameters.
func (g *DiurnalMix) Validate() error {
	if g.PC < 0 || g.PC > 1 || math.IsNaN(g.PC) {
		return fmt.Errorf("workload: DiurnalMix PC must lie in [0,1] (got %v)", g.PC)
	}
	if g.Amp < 0 || math.IsNaN(g.Amp) {
		return fmt.Errorf("workload: DiurnalMix amplitude must be non-negative (got %v)", g.Amp)
	}
	if g.PeriodSlots <= 0 {
		return fmt.Errorf("workload: DiurnalMix needs a positive period (got %d slots)", g.PeriodSlots)
	}
	return nil
}

// CorrelatedBursts is Bursty's cross-balancer cousin: one GLOBAL hot/cold
// phase chain flips at slot boundaries, each balancer keeps a private phase
// chain flipping per draw, and every task follows the global phase with
// probability Corr (its own otherwise). At Corr = 1 all balancers burst in
// lockstep — the hardest stream for colocation, because the entire fleet
// floods the servers with type-C work at once; at Corr = 0 it degenerates
// to independent per-balancer Bursty.
//
// Stateful (global phase + per-balancer table + slot counter): Run loops
// clone it; concurrent use of ONE instance is not supported (the global
// chain is inherently shared), which is exactly why cloning exists.
type CorrelatedBursts struct {
	PCHot, PCCold float64 // P(type-C) in the hot and cold phase
	SwitchProb    float64 // phase-flip probability (global: per slot; private: per draw)
	Corr          float64 // probability a draw follows the global phase
	NumBalancers  int     // presizes the private phase table

	globalHot bool
	hot       []bool
	clock     slotTracker
	lastFlip  int // slot whose global flip has already been drawn
}

// NewCorrelatedBursts returns a presized, reset generator.
func NewCorrelatedBursts(pcHot, pcCold, switchProb, corr float64, numBalancers int) *CorrelatedBursts {
	g := &CorrelatedBursts{PCHot: pcHot, PCCold: pcCold, SwitchProb: switchProb,
		Corr: corr, NumBalancers: numBalancers}
	g.Reset()
	return g
}

// Next draws a task, evolving the global chain at slot boundaries and the
// balancer's private chain every draw.
func (g *CorrelatedBursts) Next(balancer int, rng *xrand.RNG) Task {
	slot := g.clock.advance(balancer)
	if slot != g.lastFlip {
		g.lastFlip = slot
		if rng.Bool(g.SwitchProb) {
			g.globalHot = !g.globalHot
		}
	}
	if balancer >= len(g.hot) {
		g.hot = append(g.hot, make([]bool, balancer+1-len(g.hot))...)
		if g.NumBalancers < len(g.hot) {
			g.NumBalancers = len(g.hot)
		}
	}
	if rng.Bool(g.SwitchProb) {
		g.hot[balancer] = !g.hot[balancer]
	}
	hot := g.hot[balancer]
	if rng.Bool(g.Corr) {
		hot = g.globalHot
	}
	pc := g.PCCold
	if hot {
		pc = g.PCHot
	}
	if rng.Bool(pc) {
		return Task{Type: TypeC, Class: 1}
	}
	return Task{Type: TypeE, Class: 0}
}

// Reset clears both phase chains and the slot clock.
func (g *CorrelatedBursts) Reset() {
	n := g.NumBalancers
	if n < 0 {
		n = 0
	}
	g.hot = make([]bool, n)
	g.globalHot = false
	g.clock.reset()
	g.lastFlip = -1
}

// CloneGenerator returns a fresh instance with pristine state.
func (g *CorrelatedBursts) CloneGenerator() Generator {
	return NewCorrelatedBursts(g.PCHot, g.PCCold, g.SwitchProb, g.Corr, g.NumBalancers)
}

// Validate checks the phase and correlation probabilities.
func (g *CorrelatedBursts) Validate() error {
	for _, p := range []float64{g.PCHot, g.PCCold, g.SwitchProb, g.Corr} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("workload: CorrelatedBursts probabilities must lie in [0,1] (hot %v, cold %v, switch %v, corr %v)",
				g.PCHot, g.PCCold, g.SwitchProb, g.Corr)
		}
	}
	return nil
}
