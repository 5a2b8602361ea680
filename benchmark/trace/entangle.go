package main

// Layer: entangle — the per-session supply chain (SPDC source service +
// QNIC pool) on a netsim engine. The onion's two inner depths are built on
// the stack wired here; depth 3 (the engine run over the service alone) is
// replayed here.

import (
	"hash/fnv"
	"time"

	"repro/benchmark/suite"
	"repro/internal/core"
	"repro/internal/entangle"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// Serving defaults of serve's newSession that a SessionRequest leaves unset,
// and the catch-up rules of its advanceAt and info. The stack below has to
// match them for the inner depths to reproduce depth 1's simulated
// statistics — which replayCore checks on every traced pass.
const (
	servePairRate   = 1e5
	servePoolCap    = 256
	serveMaxAdvance = 25 * time.Millisecond
	serveInfoTick   = time.Millisecond
)

// stack is one session's engine + pool + source service, wired as serve's
// newSession wires them. Depth 2 attaches the core session on top (core.go);
// at depth 3 the source runs into a pool nothing consumes from.
type stack struct {
	engine *netsim.Engine
	pool   *entangle.Pool
	svc    *entangle.Service
	core   *core.Session // nil until attachCore
	seed   uint64
	source entangle.SourceConfig

	simNow   time.Duration
	lastWall time.Time
}

// newStack provisions the supply chain for one session request.
func newStack(req serve.SessionRequest, now time.Time) *stack {
	s := &stack{engine: netsim.NewEngine(), seed: req.Seed, source: entangle.DefaultSource(), lastWall: now}
	if s.seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(req.ID))
		s.seed = h.Sum64()
	}
	s.source.PairRate = servePairRate
	if req.PairRate != 0 {
		s.source.PairRate = req.PairRate
	}
	poolCap := servePoolCap
	if req.PoolCap != 0 {
		poolCap = req.PoolCap
	}
	s.pool = entangle.NewPool(entangle.DefaultQNIC(), poolCap)
	s.svc = entangle.StartService(s.engine, s.source, s.pool, xrand.New(s.seed, 0x5e55).Split(1))
	return s
}

// advance maps the wall reading onto the session's simulated clock (at most
// serveMaxAdvance per step) and runs the engine up to it.
func (s *stack) advance(t *tracer, req, parent int, wall time.Time) time.Duration {
	delta := wall.Sub(s.lastWall)
	if delta <= 0 {
		return s.simNow
	}
	s.lastWall = wall
	if delta > serveMaxAdvance {
		delta = serveMaxAdvance
	}
	s.simNow += delta
	sp := t.child("netsim", "Engine.RunUntil", req, parent)
	s.engine.RunUntil(s.simNow)
	t.end(sp)
	return s.simNow
}

// poll is what a session-info read does to the supply chain: catch up only
// if a tick has passed.
func (s *stack) poll(t *tracer, req, parent int, wall time.Time) {
	if wall.Sub(s.lastWall) >= serveInfoTick {
		s.advance(t, req, parent, wall)
	}
}

// supplyCounts sums what the stacks' services and pools counted.
type supplyCounts struct {
	events    int64 // engine callbacks executed: source ticks + pair arrivals
	delivered int64
	consumed  int64
	added     int64
	expired   int64
}

func countSupply(stacks []*stack) supplyCounts {
	var c supplyCounts
	for _, s := range stacks {
		sv, pl := s.svc.Stats(), s.pool.Stats()
		c.events += sv.Generated + sv.Suppressed + sv.Delivered + sv.Rejected + sv.DroppedAfterStop
		c.delivered += sv.Delivered
		c.consumed += pl.Consumed
		c.added += pl.Added
		c.expired += pl.Expired
	}
	return c
}

// replaySupply is onion depth 3: the same catch-up schedule the accepted
// requests impose, run over engine + service + pool alone.
func replaySupply(p *plan, accepted []bool, t *tracer) (depthStats, supplyCounts) {
	var st depthStats
	t.enter(3)
	start := time.Now()
	stacks := make([]*stack, len(p.sessions))
	for i, req := range p.sessions {
		stacks[i] = newStack(req, suite.Epoch)
	}
	for i := range p.reqs {
		if !accepted[i] {
			continue
		}
		r := &p.reqs[i]
		wall := suite.Epoch.Add(r.at)
		sp := t.begin("entangle", "supply catch-up", i)
		if r.rounds == nil {
			stacks[r.session].poll(t, i, sp, wall)
		} else {
			stacks[r.session].advance(t, i, sp, wall)
		}
		t.end(sp)
	}
	for _, s := range stacks {
		s.svc.Stop()
	}
	st.elapsed = time.Since(start)
	return st, countSupply(stacks)
}

// probeEntangle measures the supply chain alone: host time per generated
// pair at the serving default and at a provisioned source, the pool's
// add+consume cycle, and how many default sessions one core can keep caught
// up with real time.
func probeEntangle(m values, unit time.Duration) {
	perPair := func(rate float64, poolCap int) float64 {
		st := newStack(serve.SessionRequest{ID: "probe", Seed: 3, PairRate: rate, PoolCap: poolCap}, suite.Epoch)
		var now time.Duration
		const pairs = 1 << 14
		step := time.Duration(float64(pairs) / rate * float64(time.Second))
		return perOp(unit, pairs, func(int) {
			now += step
			st.engine.RunUntil(now)
		})
	}
	def := perPair(servePairRate, servePoolCap)
	m["entangle.ns_per_pair.default"] = def
	m["entangle.ns_per_pair.provisioned"] = perPair(1e6, 512)
	// One simulated second of one default session costs def × rate host
	// nanoseconds; a core has 1e9 of them per real second.
	m["entangle.sessions_per_core"] = 1e9 / (def * servePairRate)

	qnic := entangle.DefaultQNIC()
	pool := entangle.NewPool(qnic, servePoolCap)
	var now time.Duration
	m["entangle.pool_add_consume_ns"] = perOp(unit, 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			now += time.Microsecond
			pool.Add(entangle.Pair{ArrivedAt: now, V0: 0.98})
			pool.TryConsume(now)
		}
	})
}
