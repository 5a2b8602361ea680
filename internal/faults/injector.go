package faults

import (
	"time"

	"repro/internal/entangle"
	"repro/internal/netsim"
)

// Target is the slice of the supply chain an Injector manipulates. Service
// and Pool are required for the fault kinds that touch them; Chain is
// optional and, when present, gives KindBSMFailure its repeater semantics
// (severity^(Segments−1) rate collapse instead of a bare delivery scale).
type Target struct {
	Service *entangle.Service
	Pool    *entangle.Pool
	Chain   *entangle.RepeaterChain
}

// Stats aggregates what an injector actually did.
type Stats struct {
	// Windows counts applied windows per kind (indexed by Kind).
	Windows [numKinds]int64
	// FaultedTime sums window durations per kind (indexed by Kind).
	FaultedTime [numKinds]time.Duration
	// FlushedPairs counts pairs lost to pool-flush events.
	FlushedPairs int64
}

// Injector replays a Schedule against a Target on a discrete-event engine.
// Arm schedules every window's start and end as engine events, so fault
// transitions interleave deterministically with the simulated traffic
// (an event at time t is applied before any round the driver runs at t).
//
// Overlapping windows compose: the injector recomputes the full composite
// state (outage, delivery scale, T2 scale) from the set of active windows
// at every transition, so severities multiply while any overlap lasts and
// restore exactly when the last window closes.
type Injector struct {
	engine *netsim.Engine
	sched  Schedule
	tgt    Target
	stats  Stats
	armed  bool
}

// NewInjector binds a schedule to a target. The schedule is validated; the
// target must have a Service and a Pool.
func NewInjector(e *netsim.Engine, sched Schedule, tgt Target) *Injector {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	if tgt.Service == nil || tgt.Pool == nil {
		panic("faults: injector target needs a Service and a Pool")
	}
	return &Injector{engine: e, sched: sched, tgt: tgt}
}

// Arm schedules every window transition on the engine. Call once, before
// running the simulation past the first window.
func (inj *Injector) Arm() {
	if inj.armed {
		panic("faults: injector armed twice")
	}
	inj.armed = true
	for _, w := range inj.sched.sorted() {
		w := w
		inj.engine.ScheduleAt(w.Start, func() { inj.open(w) })
		if w.Kind != KindPoolFlush && w.End > w.Start {
			inj.engine.ScheduleAt(w.End, func() { inj.apply() })
		}
	}
}

// open applies a window's start transition.
func (inj *Injector) open(w Window) {
	inj.stats.Windows[w.Kind]++
	inj.stats.FaultedTime[w.Kind] += w.Duration()
	if w.Kind == KindPoolFlush {
		inj.stats.FlushedPairs += int64(inj.tgt.Pool.Flush())
		return
	}
	inj.apply()
}

// apply recomputes the composite fault state from the windows active now
// and pushes it into the target.
func (inj *Injector) apply() {
	now := inj.engine.Now()

	down, _ := inj.sched.ActiveAt(KindSourceOutage, now)
	inj.tgt.Service.SetOutage(down)

	scale := 1.0
	if on, sev := inj.sched.ActiveAt(KindFiberLossBurst, now); on {
		scale *= sev
	}
	if on, sev := inj.sched.ActiveAt(KindBSMFailure, now); on {
		scale *= inj.bsmDeliveryScale(sev)
	}
	inj.tgt.Service.SetDeliveryScale(scale)

	t2 := 1.0
	if on, sev := inj.sched.ActiveAt(KindDecoherenceSpike, now); on {
		t2 = sev
	}
	inj.tgt.Pool.SetT2Scale(now, t2)
}

// bsmDeliveryScale converts a BSM-success multiplier into an end-to-end
// delivery-rate multiplier. With a chain of S segments, each of the S−1
// swaps succeeds with scaled probability, so the rate collapses by
// sev^(S−1); without a chain the severity applies directly.
func (inj *Injector) bsmDeliveryScale(sev float64) float64 {
	if inj.tgt.Chain == nil || inj.tgt.Chain.Segments <= 1 {
		return sev
	}
	scale := 1.0
	for i := 1; i < inj.tgt.Chain.Segments; i++ {
		scale *= sev
	}
	return scale
}

// Stats returns what the injector has applied so far.
func (inj *Injector) Stats() Stats { return inj.stats }
