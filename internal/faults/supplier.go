package faults

import (
	"time"

	"repro/internal/entangle"
)

// Supplier wraps an entangle.Supplier with a fault timeline for drivers
// that advance time themselves instead of running a discrete-event engine
// (the Figure 4 simulator's slot loop, as in E17's queueing half). It is
// fully deterministic: fault effects are pure functions of the schedule and
// the consumption clock, with no sampling.
//
//   - Source outages starve consumption outright.
//   - Fiber-loss bursts and BSM-failure windows thin the supply by their
//     severity: delivering one pair costs 1/severity pairs from the inner
//     supplier (the lost ones were measured out in fiber), tracked by a
//     deterministic debt accumulator rather than coin flips.
//   - Decoherence spikes scale delivered visibility by their severity.
//   - Pool flushes drain the inner supplier once, at the flush instant.
type Supplier struct {
	Inner entangle.Supplier
	Sched Schedule

	lossDebt float64
	flushed  int // flush windows already applied
}

// NewSupplier wraps inner with the schedule.
func NewSupplier(inner entangle.Supplier, sched Schedule) *Supplier {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	return &Supplier{Inner: inner, Sched: sched}
}

// TryConsume implements entangle.Supplier.
func (f *Supplier) TryConsume(now time.Duration) (float64, bool) {
	f.applyFlushes(now)
	factor := f.Sched.SupplyFactor(now)
	if factor == 0 {
		return 0, false
	}
	if factor < 1 {
		// Thin deterministically: a delivered pair costs 1/factor source
		// pairs; burn the extra (1/factor − 1) as fiber losses first.
		f.lossDebt += 1/factor - 1
		for f.lossDebt >= 1 {
			if _, ok := f.Inner.TryConsume(now); !ok {
				f.lossDebt = 0
				return 0, false
			}
			f.lossDebt--
		}
	}
	v, ok := f.Inner.TryConsume(now)
	if !ok {
		return 0, false
	}
	return v * f.Sched.VisibilityFactor(now), true
}

// applyFlushes drains the inner supplier once for every flush window whose
// start has passed since the last call. Only the count of due windows
// matters, so the schedule is read in place, in whatever order it is in.
func (f *Supplier) applyFlushes(now time.Duration) {
	due := 0
	for _, w := range f.Sched.Windows {
		if w.Kind == KindPoolFlush && w.Start <= now {
			due++
		}
	}
	for i := f.flushed; i < due; i++ {
		// Bounded drain: buffered suppliers run dry quickly; the bound
		// keeps an (idealized) infinite supplier from hanging the run.
		for n := 0; n < 1<<20; n++ {
			if _, ok := f.Inner.TryConsume(now); !ok {
				break
			}
		}
	}
	f.flushed = due
}
