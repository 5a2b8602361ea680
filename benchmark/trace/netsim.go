package main

// Layer: netsim — the discrete-event engine under every session's supply
// chain.

import (
	"time"

	"repro/internal/netsim"
)

// probeNetsim measures the calendar queue through Schedule/Run with the hold
// model: n pending events, each of which on firing schedules its successor
// at a fresh pseudo-random offset, so the queue holds n events throughout —
// the steady state of an n-endpoint simulation. All chains share one
// self-rescheduling closure over one xorshift stream, so the timed region
// allocates nothing and every timestamp is distinct.
func probeNetsim(m values, unit time.Duration) {
	hold := func(n int) float64 {
		e := netsim.NewEngine()
		s := uint64(0x9e3779b97f4a7c15)
		next := func() time.Duration {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return time.Duration((s >> 32) * 2_000_000 >> 32)
		}
		var self func()
		self = func() { e.Schedule(next(), self) }
		for i := 0; i < n; i++ {
			e.Schedule(next(), self)
		}
		e.Run(2 * n) // two turnovers: past the queue's growth resizes
		return perOp(unit, 1<<15, func(events int) { e.Run(events) })
	}
	m["netsim.ns_per_event.n100"] = hold(100)
	m["netsim.ns_per_event.n1e4"] = hold(10_000)
	m["netsim.ns_per_event.n1e5"] = hold(100_000)
}
