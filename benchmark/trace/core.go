package main

// Layer: core — the decision primitive: one coordination round on the
// health ladder. Onion depth 2 (core.Session.Round on a probe-built supply
// chain) is replayed here.

import (
	"fmt"
	"time"

	"repro/benchmark/suite"
	"repro/internal/core"
	"repro/internal/entangle"
	"repro/internal/games"
)

// serveHealthWindow is serve's default health-monitor window.
const serveHealthWindow = 16

// colocation is the game every serving workload's sessions play.
var colocation = games.NewColocationCHSH()

// attachCore puts the core session on the stack, configured as serve's
// newSession configures it.
func (s *stack) attachCore(id string) error {
	var err error
	s.core, err = core.NewSession(core.Config{
		Game:     colocation,
		Supplier: s.pool,
		QNIC:     s.pool.QNIC,
		Seed:     s.seed,
		Health: &core.HealthConfig{
			Window:         serveHealthWindow,
			BaseVisibility: s.source.BaseVisibility,
			MetricsName:    id,
		},
	})
	return err
}

// coreCounts sums what the stacks' core sessions counted.
type coreCounts struct {
	rounds, quantum int64
	supply          supplyCounts
}

// replayCore is onion depth 2: every accepted request's rounds played
// straight on core.Session.Round, with the engine caught up first as serve's
// session does. want is depth 1's outcome; because the stacks are seeded and
// stepped exactly as serve's sessions are, decisions and wins must match it
// to the unit — that is what makes subtracting this depth's time from depth
// 1's meaningful.
func replayCore(p *plan, accepted []bool, want depthStats, t *tracer) (depthStats, coreCounts, error) {
	var st depthStats
	t.enter(2)
	start := time.Now()
	stacks := make([]*stack, len(p.sessions))
	for i, req := range p.sessions {
		stacks[i] = newStack(req, suite.Epoch)
		if err := stacks[i].attachCore(req.ID); err != nil {
			return st, coreCounts{}, fmt.Errorf("depth 2: %w", err)
		}
	}
	for i := range p.reqs {
		if !accepted[i] {
			continue // shed at depth 1: never reached its session
		}
		r := &p.reqs[i]
		s := stacks[r.session]
		wall := suite.Epoch.Add(r.at)
		if r.rounds == nil {
			sp := t.begin("core", "info", i)
			s.poll(t, i, sp, wall)
			t.end(sp)
			continue
		}
		sp := t.begin("core", "Session.Round", i)
		s.core.Health().SetBrownout(false)
		now := s.advance(t, i, sp, wall)
		for _, rd := range r.rounds {
			d := s.core.Round(now, rd.X, rd.Y)
			if colocation.Wins(rd.X, rd.Y, d.A, d.B) {
				st.wins++
			}
		}
		t.end(sp)
		st.decisions += int64(len(r.rounds))
	}
	var c coreCounts
	for _, s := range stacks {
		s.svc.Stop()
		cs := s.core.Stats()
		c.rounds += cs.Rounds
		c.quantum += cs.QuantumRounds
	}
	st.elapsed = time.Since(start)
	c.supply = countSupply(stacks)
	if st.decisions != want.decisions || st.wins != want.wins {
		return st, c, fmt.Errorf("depth 2 is not depth 1's work: played %d decisions / %d wins, depth 1 played %d / %d",
			st.decisions, st.wins, want.decisions, want.wins)
	}
	t.count("core.Round.calls", c.rounds)
	t.count("core.Round.quantum", c.quantum)
	t.count("netsim.events", c.supply.events)
	t.count("entangle.pairs_delivered", c.supply.delivered)
	t.count("entangle.pairs_consumed", c.supply.consumed)
	t.count("entangle.pairs_expired", c.supply.expired)
	return st, c, nil
}

// probeCore measures one round on each side of the ladder: with a pair
// always at hand (quantum rung), with none ever (the monitor steps down to
// the classical rung), and the load-driven brownout round.
func probeCore(m values, unit time.Duration) error {
	session := func(supplier entangle.Supplier) (*core.Session, error) {
		return core.NewSession(core.Config{
			Game:     colocation,
			Supplier: supplier,
			QNIC:     entangle.DefaultQNIC(),
			Seed:     5,
			Health:   &core.HealthConfig{Window: serveHealthWindow, BaseVisibility: 0.98, MetricsName: "probe"},
		})
	}
	quantum, err := session(entangle.PerfectSupplier{Visibility: 0.95})
	if err != nil {
		return err
	}
	fallback, err := session(entangle.EmptySupplier{})
	if err != nil {
		return err
	}
	var now time.Duration
	rounds := func(s *core.Session, brownout bool) float64 {
		return perOp(unit, 1<<14, func(n int) {
			for i := 0; i < n; i++ {
				now += 10 * time.Microsecond
				if brownout {
					s.BrownoutRound(i&1, i>>1&1)
				} else {
					s.Round(now, i&1, i>>1&1)
				}
			}
		})
	}
	m["core.round_ns.quantum"] = rounds(quantum, false)
	m["core.round_ns.fallback"] = rounds(fallback, false)
	m["core.brownout_round_ns"] = rounds(fallback, true)
	if q := quantum.Stats(); q.QuantumRounds != q.Rounds {
		return fmt.Errorf("core probe: %d of %d rounds rode the quantum rung, want all", q.QuantumRounds, q.Rounds)
	}
	if f := fallback.Stats(); f.QuantumRounds != 0 {
		return fmt.Errorf("core probe: %d fallback rounds consumed a pair", f.QuantumRounds)
	}
	return nil
}
