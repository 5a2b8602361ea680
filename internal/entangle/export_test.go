package entangle

import (
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// StartEventService is the callback-per-event source the stream Service
// replaced, kept as its differential oracle: one queued closure per
// generation tick (the tick reschedules itself until the service's stopped
// flag is set) and one per pair in flight. It returns a *Service so the
// fault injector and the fuzz driver steer both implementations through the
// same SetOutage/SetDeliveryScale/SetBudget/Stop surface; it never attaches
// to the engine's stream slot.
func StartEventService(e *netsim.Engine, src SourceConfig, pool *Pool, rng *xrand.RNG) *Service {
	if err := src.Validate(); err != nil {
		panic(err)
	}
	s := &Service{Source: src, Pool: pool, engine: e, rng: rng, deliveryScale: 1}
	delivery := src.DeliveryProbability()
	propagation := src.DeliveryLatency()
	emit := func() {
		if s.outage {
			s.stats.Suppressed++
			return
		}
		s.stats.Generated++
		if !rng.Bool(delivery * s.deliveryScale) {
			s.stats.LostFiber++
			return
		}
		e.Schedule(propagation, func() {
			if s.stopped {
				s.stats.DroppedAfterStop++
				return
			}
			if !pool.Add(Pair{ArrivedAt: e.Now(), V0: src.BaseVisibility}) {
				s.stats.Rejected++
				return
			}
			s.stats.Delivered++
			if s.stats.Delivered == s.budget {
				s.Stop()
			}
		})
	}
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		emit()
		e.Schedule(src.Interval(), tick)
	}
	e.Schedule(src.Interval(), tick)
	return s
}

// Pairs returns the stored pairs, oldest first.
func (p *Pool) Pairs() []Pair {
	out := make([]Pair, p.pairs.n)
	for i := range out {
		out[i] = *p.pairs.at(i)
	}
	return out
}
