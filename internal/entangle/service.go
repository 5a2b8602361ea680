package entangle

import (
	"math/bits"
	"time"

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
// (at, seq) order up to the bound.
//
// A window of bulkMinTicks or more first goes through bulkBefore; the loop
// below is the reference, and finishes whatever the bulk pass left.
func (s *Service) RunBefore(at time.Duration, seq uint64) {
	if at-s.tickAt >= bulkMinTicks*s.interval {
		s.bulkBefore(at)
	}
	for {
		eat, eseq, arrival, ok := s.next()
		if !ok || eat > at || (eat == at && eseq >= seq) {
			break
		}
		if arrival {
			s.flights.drop(1)
			s.arrive(eat)
		} else {
			s.tick()
		}
	}
}

// Bulk catch-up shape: windows shorter than bulkMinTicks are not worth the
// set-up, and a long window runs bulkChunk ticks at a time, one survivor
// mask per chunk. bulkMinTicks counts the whole ticks before the bound, so
// a window of bulkMinTicks+1 ticks is the shortest the bulk pass takes. It
// is BenchmarkServiceCatchUp's crossover on the default source (median
// ns/tick over 12–16 alternating runs, per-event loop → bulk): 47 → 53 on
// 3-tick windows, 46 → 44.5 on 4, 45 → 39 on 5, 43 → 30 on 8, 41 → 13 on 32.
const (
	bulkMinTicks = 3
	bulkChunk    = 256
)

// bulkBefore runs the whole ticks of a long catch-up window, and the
// arrivals before the last of them, as the same events in a cheaper order:
// per chunk, every tick's draw into one survivor mask, then every arrival
// the ticks' end bounds. It is a re-association of tick and arrive, not a
// second source model. Inside one RunBefore no callback runs, a tick reads
// only stopped/outage/deliveryScale, the RNG and Engine.NextSeq, and an
// arrival writes none of those unless it exhausts a budget — so under the
// three guards below the ticks draw the same numbers and sequence numbers
// as the (at, seq) merge, the arrivals land in the same order at the same
// times, and every counter ends where the merge leaves it:
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
func (s *Service) bulkBefore(at time.Duration) {
	if !s.ticking || s.stopped || s.outage || s.budget != 0 {
		return
	}
	pool := s.Pool
	if pool.Cap > 0 && int64(pool.pairs.n)+int64(pool.QNIC.StorageLimit/s.interval)+2 > int64(pool.Cap) {
		return
	}
	// Counted in ticks, by division: a product of the interval can overflow
	// for a source slower than one pair in nine years.
	ticks := int64((at - s.tickAt) / s.interval)
	if ticks < bulkMinTicks {
		return
	}
	p := s.delivery * s.deliveryScale
	// A pair is still stored at a chunk's last landing if it arrived at most
	// StorageLimit before it: a survivor at most keep ticks before the last.
	keep := int64(pool.QNIC.StorageLimit / s.interval)
	var mask survivors
	for ticks > 0 {
		n := int(min(ticks, bulkChunk))
		ticks -= int64(n)
		s.rng.BoolMask(p, mask[:], n)
		k := mask.rank(n)
		// The merge stamps tick i's pair, then the tick after it, so the
		// chunk draws n + k sequence numbers and survivor i holds
		// s0 + i + rank(i).
		t0, s0 := s.tickAt, s.engine.ReserveSeq(uint64(n+k))
		s.tickAt += time.Duration(n) * s.interval
		s.tickSeq = s0 + uint64(n+k) - 1
		s.stats.Generated += int64(n)
		s.stats.LostFiber += int64(n - k)

		// Arrivals before the chunk's end, (tickAt, 0): the pairs in flight
		// from before it that land by then, and the chunk's survivors from
		// the first c ticks — tick i's pair lands at t0 + i·interval +
		// latency.
		c := 0
		if span := time.Duration(n)*s.interval - s.latency; span > 0 {
			c = int((span-1)/s.interval) + 1
		}
		kOld := s.flights.n
		for kOld > 0 && s.flights.at(kOld-1).at >= s.tickAt {
			kOld--
		}
		kNew := mask.rank(c)
		if kOld+kNew > 0 {
			// Each add expires as of its own arrival, so after the last one
			// exactly the pairs — old or new — that arrived within
			// StorageLimit of it are stored; the rest are counted as added
			// and expired and never stored. The cutoff is the last arrival
			// and not the chunk's end because expiry is lazy: a Flush or Len
			// after the catch-up sees the stale pairs the last add left.
			j := mask.last(c)
			last := t0 + time.Duration(j)*s.interval + s.latency
			if j < 0 {
				last = s.flights.at(kOld - 1).at
			}
			pool.Expire(last)
			stale := 0
			for stale < kOld && (Pair{ArrivedAt: s.flights.at(stale).at}).Expired(last, pool.QNIC) {
				stale++
			}
			for i := stale; i < kOld; i++ {
				pool.pairs.push(Pair{ArrivedAt: s.flights.at(i).at, V0: s.Source.BaseVisibility})
			}
			s.flights.drop(kOld)
			if kNew > 0 {
				lo := int(max(int64(j)-keep, 0))
				stale += mask.rank(lo)
				for w := lo / 64; w*64 < c; w++ {
					for x := mask.word(w, lo, c); x != 0; x &= x - 1 {
						i := w*64 + bits.TrailingZeros64(x)
						pool.pairs.push(Pair{ArrivedAt: t0 + time.Duration(i)*s.interval + s.latency, V0: s.Source.BaseVisibility})
					}
				}
			}
			pool.stats.Added += int64(kOld + kNew)
			pool.stats.Expired += int64(stale)
			s.stats.Delivered += int64(kOld + kNew)
		}
		// The survivors still in flight at the chunk's end.
		r := kNew
		for w := c / 64; w*64 < n; w++ {
			for x := mask.word(w, c, n); x != 0; x &= x - 1 {
				i := w*64 + bits.TrailingZeros64(x)
				s.flights.push(flight{at: t0 + time.Duration(i)*s.interval + s.latency, seq: s0 + uint64(i+r)})
				r++
			}
		}
	}
}

// survivors is one chunk's survivor mask: bit i is set when tick i's pair
// survived the fiber.
type survivors [bulkChunk / 64]uint64

// word returns word w of the mask with only the survivors among ticks
// [lo, hi) kept; w·64 must not exceed hi.
func (m *survivors) word(w, lo, hi int) uint64 {
	x := m[w]
	if lo > w*64 {
		x &= ^uint64(0) << (lo - w*64)
	}
	if hi < w*64+64 {
		x &= 1<<(hi-w*64) - 1
	}
	return x
}

// rank counts the survivors among the first i ticks.
func (m *survivors) rank(i int) int {
	r := 0
	for w := 0; w*64 < i; w++ {
		r += bits.OnesCount64(m.word(w, 0, i))
	}
	return r
}

// last returns the last survivor before tick end, or −1 if there is none.
func (m *survivors) last(end int) int {
	for w := (end - 1) / 64; w >= 0; w-- {
		if x := m.word(w, 0, end); x != 0 {
			return w*64 + 63 - bits.LeadingZeros64(x)
		}
	}
	return -1
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

// arrive lands one pair at the QNICs.
func (s *Service) arrive(at time.Duration) {
	// A pair emitted before Stop may land after it; a stopped source must be
	// silent, so the photons are discarded at the QNIC instead of mutating a
	// pool the owner believes quiescent.
	if s.stopped {
		s.stats.DroppedAfterStop++
		return
	}
	if !s.Pool.Add(Pair{ArrivedAt: at, V0: s.Source.BaseVisibility}) {
		s.stats.Rejected++
		return
	}
	s.stats.Delivered++
	if s.stats.Delivered == s.budget {
		s.stopped = true
	}
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
// source-outage fault. While down, generation ticks are counted
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

// NextArrival returns a lower bound on when the next pair from this source
// can land in the pool: the oldest pair in flight, else the next tick plus
// the delivery latency. ok is false once none can (a stopped source never
// restarts). An outage, a delivery scale or a fiber loss only make the real
// arrival later, so a waiter may run the engine straight to this instant.
func (s *Service) NextArrival() (at time.Duration, ok bool) {
	if s.stopped {
		return 0, false
	}
	if s.flights.n > 0 {
		return s.flights.at(0).at, true
	}
	return s.tickAt + s.latency, true
}

// Stats returns source-side counters.
func (s *Service) Stats() ServiceStats { return s.stats }
