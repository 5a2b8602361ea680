package entangle

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// ServiceStats counts source-side events.
type ServiceStats struct {
	Generated        int64 // pairs emitted by the source
	LostFiber        int64 // pairs losing ≥1 photon in fiber
	Delivered        int64 // pairs that reached both QNICs
	Rejected         int64 // pairs dropped because the pool was full
	Suppressed       int64 // generation ticks skipped while the source was down
	DroppedAfterStop int64 // in-flight pairs discarded because Stop preceded arrival
}

// Source-side counters, aggregated process-wide in the default metrics
// registry (see the pool counters above for the instrumentation contract).
var (
	mSvcGenerated  = metrics.Default().Counter("entangle_source_generated_total")
	mSvcLostFiber  = metrics.Default().Counter("entangle_source_lost_fiber_total")
	mSvcDelivered  = metrics.Default().Counter("entangle_source_delivered_total")
	mSvcRejected   = metrics.Default().Counter("entangle_source_rejected_total")
	mSvcSuppressed = metrics.Default().Counter("entangle_source_suppressed_total")
	mSvcDropped    = metrics.Default().Counter("entangle_source_dropped_after_stop_total")
)

// Service drives a Pool from an SPDC source on a discrete-event engine:
// every source interval a pair is emitted; with the fiber's delivery
// probability it survives both arms and is stored at both QNICs after the
// propagation delay. This is the "continuous stream of entangled qubits
// distributed in advance" of Figure 2.
//
// The service is the engine's netsim.Stream: instead of queueing a callback
// per generation tick and another per arrival, it keeps the next tick in a
// cursor and the pairs in flight in a FIFO ring (delivery latency is
// constant, so arrivals land in emission order). Every tick and arrival
// still carries an engine sequence number, drawn where the callback chain
// would have drawn it, so the order against fault-injector and driver
// callbacks — and with it every RNG draw and counter — is what a
// callback-per-event source produces.
//
// The fault hooks (SetOutage, SetDeliveryScale) model the supply-chain
// failures a production deployment must survive — see internal/faults for
// the deterministic injector that drives them.
type Service struct {
	Source SourceConfig
	Pool   *Pool

	engine *netsim.Engine
	rng    *xrand.RNG
	stats  ServiceStats

	interval time.Duration
	latency  time.Duration // generation → usable: propagation + heralding
	delivery float64       // nominal probability both photons arrive

	// The next generation tick. After Stop the pending tick still fires once,
	// as a no-op, and only then does the cursor go idle.
	tickAt  time.Duration
	tickSeq uint64
	ticking bool

	flights ring[flight] // pairs in flight, oldest first

	stopped bool
	outage  bool
	// deliveryScale multiplies the fiber delivery probability (1 nominal);
	// fiber-loss bursts and repeater BSM-failure windows collapse it.
	deliveryScale float64
	budget        int64 // stop once this many pairs are delivered; 0 = no cap
}

// flight is one emitted pair on its way to the QNICs.
type flight struct {
	at  time.Duration // arrival time
	seq uint64
}

// StartService begins pair distribution on the engine, occupying its stream
// slot. Call Stop to end it.
func StartService(e *netsim.Engine, src SourceConfig, pool *Pool, rng *xrand.RNG) *Service {
	if err := src.Validate(); err != nil {
		panic(err)
	}
	interval := src.Interval()
	s := &Service{
		Source: src, Pool: pool, engine: e, rng: rng, deliveryScale: 1,
		interval: interval,
		// Pairs become usable one full delivery latency (propagation +
		// heralding) after generation.
		latency:  src.DeliveryLatency(),
		delivery: src.DeliveryProbability(),
		tickAt:   e.Now() + interval,
		tickSeq:  e.NextSeq(),
		ticking:  true,
	}
	e.Attach(s)
	return s
}

// next returns the service's earliest pending event and whether it is an
// arrival (true) or the generation tick (false).
func (s *Service) next() (at time.Duration, seq uint64, arrival, ok bool) {
	if s.flights.n > 0 {
		f := s.flights.at(0)
		if !s.ticking || f.at < s.tickAt || (f.at == s.tickAt && f.seq < s.tickSeq) {
			return f.at, f.seq, true, true
		}
	}
	return s.tickAt, s.tickSeq, false, s.ticking
}

// Head implements netsim.Stream.
func (s *Service) Head() (time.Duration, uint64, bool) {
	at, seq, _, ok := s.next()
	return at, seq, ok
}

// RunBefore implements netsim.Stream: it runs ticks and arrivals in
// (at, seq) order up to the bound, then publishes what they counted to the
// process-wide registry — one atomic add per counter that moved, however
// many pairs the catch-up covered.
//
// A window of bulkMinTicks or more first goes through bulkBefore; the loop
// below is the reference, and finishes whatever the bulk pass left.
func (s *Service) RunBefore(at time.Duration, seq uint64) {
	before := s.stats
	expired := 0
	if at-s.tickAt >= bulkMinTicks*s.interval {
		expired = s.bulkBefore(at)
	}
	for {
		eat, eseq, arrival, ok := s.next()
		if !ok || eat > at || (eat == at && eseq >= seq) {
			break
		}
		if arrival {
			s.flights.drop(1)
			expired += s.arrive(eat)
		} else {
			s.tick()
		}
	}
	s.publish(before, expired)
}

// Bulk catch-up shape: windows shorter than bulkMinTicks are not worth the
// set-up, and a long window runs bulkChunk ticks at a time so the flights
// ring holds one chunk's pairs plus those in flight, not the whole window's.
const (
	bulkMinTicks = 32
	bulkChunk    = 256
)

// bulkBefore runs the whole ticks of a long catch-up window, and the
// arrivals before the last of them, as the same events in a cheaper order:
// per chunk, every tick (phase A), then every arrival the ticks' end bounds
// (phase B, Pool.addArrived). It is a re-association of tick and arrive, not
// a second source model. Inside one RunBefore no callback runs, a tick reads
// only stopped/outage/deliveryScale, the RNG and Engine.NextSeq, and an
// arrival writes none of those unless it exhausts a budget — so under the
// three guards below the ticks draw the same numbers and sequence numbers in
// the same order as the (at, seq) merge, the arrivals land in the same order
// at the same times, and every counter ends where the merge leaves it:
//
//   - the source is up: ticking, not stopped, no outage (a dead or
//     suppressed tick is the reference loop's business);
//   - no pair budget is armed (the arrival that exhausts one stops the
//     source, which the ticks after it must see);
//   - the pool cannot fill: arrivals are an interval apart, so at most
//     StorageLimit/interval + 1 of them are live beside what is stored now.
//
// Anything else returns at once. What is left before (at, seq) — under one
// interval of events, ties on the bound included — runs in RunBefore's loop.
// Out of line on purpose: RunBefore serves one- and two-tick windows on every
// decide, and stays the code it was but for one compare.
//
//go:noinline
func (s *Service) bulkBefore(at time.Duration) (expired int) {
	if !s.ticking || s.stopped || s.outage || s.budget != 0 {
		return 0
	}
	pool := s.Pool
	if pool.Cap > 0 && int64(pool.pairs.n)+int64(pool.QNIC.StorageLimit/s.interval)+2 > int64(pool.Cap) {
		return 0
	}
	// Counted in ticks, by division: a product of the interval can overflow
	// for a source slower than one pair in nine years.
	ticks := int64((at - s.tickAt) / s.interval)
	if ticks < bulkMinTicks {
		return 0
	}
	p := s.delivery * s.deliveryScale
	for ticks > 0 {
		n := min(ticks, bulkChunk)
		ticks -= n
		lost := int64(0)
		for i := int64(0); i < n; i++ {
			if s.rng.Bool(p) {
				s.flights.push(flight{at: s.tickAt + s.latency, seq: s.engine.NextSeq()})
			} else {
				lost++
			}
			s.tickAt += s.interval
			s.tickSeq = s.engine.NextSeq()
		}
		s.stats.Generated += n
		s.stats.LostFiber += lost
		// (tickAt, 0) bounds exactly the ticks just run and the arrivals
		// stamped before the next one.
		if k := sort.Search(s.flights.n, func(i int) bool { return s.flights.at(i).at >= s.tickAt }); k > 0 {
			expired += pool.addArrived(&s.flights, k, s.Source.BaseVisibility)
			s.flights.drop(k)
			s.stats.Delivered += int64(k)
		}
	}
	return expired
}

// tick is one generation attempt.
func (s *Service) tick() {
	if s.stopped {
		s.ticking = false
		return
	}
	if s.outage {
		s.stats.Suppressed++
	} else {
		s.stats.Generated++
		if s.rng.Bool(s.delivery * s.deliveryScale) {
			s.flights.push(flight{at: s.tickAt + s.latency, seq: s.engine.NextSeq()})
		} else {
			s.stats.LostFiber++
		}
	}
	s.tickAt += s.interval
	s.tickSeq = s.engine.NextSeq()
}

// arrive lands one pair at the QNICs and returns how many stored pairs its
// arrival expired from the pool.
func (s *Service) arrive(at time.Duration) (expired int) {
	// A pair emitted before Stop may land after it; a stopped source must be
	// silent, so the photons are discarded at the QNIC instead of mutating a
	// pool the owner believes quiescent.
	if s.stopped {
		s.stats.DroppedAfterStop++
		return 0
	}
	stored, expired := s.Pool.add(Pair{ArrivedAt: at, V0: s.Source.BaseVisibility})
	if !stored {
		s.stats.Rejected++
		return expired
	}
	s.stats.Delivered++
	if s.stats.Delivered == s.budget {
		s.stopped = true
	}
	return expired
}

// publish adds the counts accumulated since before to the process-wide
// registry. Every stored pair is a delivered one, so the pool's added
// counter moves with Delivered.
func (s *Service) publish(before ServiceStats, poolExpired int) {
	add := func(c *metrics.Counter, d int64) {
		if d != 0 {
			c.Add(d)
		}
	}
	add(mSvcGenerated, s.stats.Generated-before.Generated)
	add(mSvcLostFiber, s.stats.LostFiber-before.LostFiber)
	add(mSvcDelivered, s.stats.Delivered-before.Delivered)
	add(mPoolAdded, s.stats.Delivered-before.Delivered)
	add(mSvcRejected, s.stats.Rejected-before.Rejected)
	add(mSvcSuppressed, s.stats.Suppressed-before.Suppressed)
	add(mSvcDropped, s.stats.DroppedAfterStop-before.DroppedAfterStop)
	add(mPoolExpired, int64(poolExpired))
}

// Stop halts the source. Pairs already in flight are discarded on arrival
// (counted as DroppedAfterStop), so after Stop the pool never changes.
func (s *Service) Stop() { s.stopped = true }

// SetBudget caps the pairs the source may deliver over its lifetime: the
// service stops itself on the arrival that brings Delivered to n, so the
// cap is exact however far one engine run advances. n = 0 lifts the cap.
func (s *Service) SetBudget(n int64) {
	s.budget = n
	if n > 0 && s.stats.Delivered >= n {
		s.stopped = true
	}
}

// SetOutage switches the source off (down=true) or back on — the
// MTBF/MTTR source-outage fault. While down, generation ticks are counted
// as Suppressed and nothing enters the fiber.
func (s *Service) SetOutage(down bool) { s.outage = down }

// SetDeliveryScale multiplies the fiber delivery probability by f ∈ [0, 1]
// from the next generation tick on (1 restores nominal). Fiber-loss bursts
// set it directly; repeater BSM-failure windows set it to the chain's
// success-probability collapse.
func (s *Service) SetDeliveryScale(f float64) {
	if !(f >= 0 && f <= 1) { // NaN fails both comparisons
		panic("entangle: delivery scale must lie in [0,1]")
	}
	s.deliveryScale = f
}

// Stats returns source-side counters.
func (s *Service) Stats() ServiceStats { return s.stats }
