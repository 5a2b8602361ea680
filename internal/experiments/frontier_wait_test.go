package experiments

import (
	"testing"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// TestFrontierPointMatchesPollingOracle pins E20's wait: every grid point
// must equal, field for field, what the 5 µs polling loop computes, at 1 km
// (the pool is rarely empty), 100 km (fiber loss leaves it empty almost
// always, so nearly every poll is skipped) and 25 and 50 km between, where
// requests outrun the delivered pairs and waits both succeed and run out.
// The deadlines include ones below waitStep + MeasureLatency (a single
// poll), one that fits no measurement at all, and ones long enough to wait
// through many in-flight pairs.
//
// Mutant killed: capping the wait at at+budget instead of the last poll
// instant that fits it. (A failed wait that stops short of the last poll
// changes no row: the pool stays empty until after it either way. The grid
// test below pins the clock.)
func TestFrontierPointMatchesPollingOracle(t *testing.T) {
	game := games.NewColocationCHSH()
	q := game.QuantumValue(xrand.New(42, 20))
	deadlines := []time.Duration{500 * time.Nanosecond, time.Microsecond, 2 * time.Microsecond,
		5 * time.Microsecond, 6 * time.Microsecond, 23 * time.Microsecond, 200 * time.Microsecond, time.Millisecond}
	for _, seed := range []uint64{42, 7} {
		for _, dist := range []float64{1_000, 25_000, 50_000, 100_000} {
			for i, d := range deadlines {
				rng := func() *xrand.RNG { return xrand.Derive(seed, uint64(i)) }
				got := simulateFrontierPoint(d, dist, 0.9, game, q, 400, rng())
				want := simulateFrontierPointPolling(d, dist, 0.9, game, q, 400, rng())
				if got != want {
					t.Fatalf("seed %d, %v m, deadline %v:\n got %+v\nwant %+v", seed, dist, d, got, want)
				}
			}
		}
	}
}

// TestAwaitPairMatchesPollingOnTheGrid drives awaitPair and the polling
// oracle on twin engines whose source puts every arrival exactly on a poll
// instant: 2·10⁵ pairs/s ticks every 5 µs and a 10 km fiber delivers
// 50 µs later. Requests come on and off the grid, closer together than
// pairs arrive, so most waits start on an empty pool. Each wait must
// return the same pair (or none) and leave the engine at the same instant.
//
// Mutants killed: skipping to the first poll strictly after NextArrival,
// which misses a pair landing on a poll instant; returning from a failed
// wait without running the engine to the last poll; capping the wait at
// at+budget.
func TestAwaitPairMatchesPollingOnTheGrid(t *testing.T) {
	type twin struct {
		engine *netsim.Engine
		svc    *entangle.Service
		pool   *entangle.Pool
	}
	src := entangle.DefaultSource()
	src.PairRate = 2e5
	src.FiberLengthM = 10_000
	if src.Interval() != waitStep || src.DeliveryLatency()%waitStep != 0 {
		t.Fatalf("interval %v, latency %v: arrivals are off the poll grid", src.Interval(), src.DeliveryLatency())
	}
	start := func() twin {
		e := netsim.NewEngine()
		pool := entangle.NewPool(entangle.DefaultQNIC(), 8)
		return twin{e, entangle.StartService(e, src, pool, xrand.New(5, 1)), pool}
	}
	fast, slow := start(), start()
	pick := xrand.New(5, 2)
	budgets := []time.Duration{0, 4 * time.Microsecond, waitStep, 12 * time.Microsecond, 40 * time.Microsecond}
	grid := 100 * time.Microsecond
	late := 0 // pairs found on a later poll than the request's first
	for i := 0; i < 4000; i++ {
		grid += time.Duration(pick.IntN(3)) * waitStep
		at := grid
		if pick.Bool(0.3) {
			at += time.Duration(pick.IntN(int(waitStep)))
		}
		budget := budgets[pick.IntN(len(budgets))]
		fast.engine.RunUntil(at)
		slow.engine.RunUntil(at)
		v, ok := awaitPair(fast.engine, fast.svc, fast.pool, at, budget)
		wv, wok := pollPair(slow.engine, slow.pool, at, budget)
		if v != wv || ok != wok || fast.engine.Now() != slow.engine.Now() {
			t.Fatalf("request %d at %v, budget %v: got (%v, %v) ending at %v, polling (%v, %v) ending at %v",
				i, at, budget, v, ok, fast.engine.Now(), wv, wok, slow.engine.Now())
		}
		if ok && fast.engine.Now() >= at+waitStep {
			late++
		}
	}
	if fast.svc.Stats() != slow.svc.Stats() || fast.pool.Stats() != slow.pool.Stats() {
		t.Fatalf("supply diverged: %+v %+v vs %+v %+v",
			fast.svc.Stats(), fast.pool.Stats(), slow.svc.Stats(), slow.pool.Stats())
	}
	if late == 0 {
		t.Fatal("no pair was found after an empty poll: the script never exercises a skip")
	}
}
