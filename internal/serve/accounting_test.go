package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestBatchAccountingMatchesPerRound(t *testing.T) {
	// Same instruments, two writers: the per-request pass against the
	// per-decision oracle, compared after every batch so a maximum that a
	// later, smaller batch must not lower is seen not to move.
	srv := &Server{mGoodput: new(metrics.Timer), mLate: new(metrics.Counter)}
	var goodput metrics.Timer
	var late metrics.Counter
	rng := rand.New(rand.NewPCG(22, 7))
	const budget = int64(5 * time.Millisecond)

	// Each kind draws a decision's three latency parts; their sum against
	// the budget decides goodput or late.
	part := func(limit int64) (q, l, w int64) {
		return rng.Int64N(limit/2 + 1), rng.Int64N(limit/4 + 1), rng.Int64N(limit/4 + 1)
	}
	kinds := []struct {
		name    string
		stamped bool
		draw    func() (q, l, w int64)
	}{
		{"unstamped", false, func() (int64, int64, int64) { return part(3 * budget) }},
		{"all in deadline", true, func() (int64, int64, int64) { return part(budget) }},
		{"all late", true, func() (int64, int64, int64) { q, l, w := part(budget); return q + budget + 1, l, w }},
		{"mixed", true, func() (int64, int64, int64) { return part(3 * budget) }},
		{"on the deadline", true, func() (int64, int64, int64) { return budget - 2 + rng.Int64N(4), 0, 0 }},
		// After the kinds above have raised the maximum: it must stay.
		{"small after large", false, func() (int64, int64, int64) { return part(1000) }},
	}
	for round := 0; round < 40; round++ {
		for _, k := range kinds {
			start := testEpoch.Add(time.Duration(rng.Int64N(int64(time.Second))))
			var deadline time.Time
			if k.stamped {
				deadline = start.Add(time.Duration(budget))
			}
			out := make([]DecideResponse, 1+rng.IntN(256))
			for i := range out {
				out[i].QueueNS, out[i].LatencyNS, out[i].WaitedNS = k.draw()
				accountDeadlineEach(&goodput, &late, start, deadline, &out[i])
			}
			srv.accountDeadline(start, deadline, out)
			if srv.mGoodput.Count() != goodput.Count() || srv.mGoodput.Total() != goodput.Total() ||
				srv.mGoodput.Max() != goodput.Max() || srv.mLate.Value() != late.Value() {
				t.Fatalf("round %d, %s, batch of %d: per-request count/total/max/late %d/%v/%v/%d, per-decision %d/%v/%v/%d",
					round, k.name, len(out),
					srv.mGoodput.Count(), srv.mGoodput.Total(), srv.mGoodput.Max(), srv.mLate.Value(),
					goodput.Count(), goodput.Total(), goodput.Max(), late.Value())
			}
		}
	}
	if goodput.Count() == 0 || late.Value() == 0 {
		t.Fatalf("fixture exercised one side only: %d goodput, %d late", goodput.Count(), late.Value())
	}
}

func TestSessionGaugesCurrentWhenUnlocked(t *testing.T) {
	// Rounds move the health monitor; the session's gauges are its published
	// copy. Whenever the session mutex is free the two must agree — checked
	// here as "what /metrics says is what Info() says" after every kind of
	// request that can move the monitor.
	clk := newManualClock(testEpoch)
	srv := NewServer(Config{Clock: clk.Now})
	t.Cleanup(srv.StopSessions)
	const id = "t-gauges"
	if _, err := srv.CreateSession(SessionRequest{ID: id, Endpoints: twoEndpoints(), Seed: 4}); err != nil {
		t.Fatal(err)
	}
	sess, _ := srv.lookup(id)
	levels := map[string]float64{}
	for l := core.DegradeNone; int(l) < core.NumLevels; l++ {
		levels[l.String()] = float64(l)
	}
	check := func(step string) SessionInfo {
		t.Helper()
		info, err := srv.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]float64{
			"session_visibility":    info.Visibility,
			"session_supply_rate":   info.SupplyRate,
			"session_degrade_level": levels[info.Level],
		} {
			if got, ok := metrics.Default().Get(metrics.Key(name, "session", id)); !ok || got != want {
				t.Fatalf("after %s: gauge %s reads %v (present %v), the monitor %v", step, name, got, ok, want)
			}
		}
		return info
	}

	var out DecideResponse
	if err := srv.Decide(id, 0, 1, &out); err != nil {
		t.Fatal(err)
	}
	cold := check("a cold Decide")

	clk.Advance(2 * time.Millisecond) // pairs arrive: the batch moves visibility and supply rate
	rounds, results := make([]Round, 48), make([]DecideResponse, 48)
	if err := srv.DecideBatch(id, rounds, results); err != nil {
		t.Fatal(err)
	}
	warm := check("DecideBatch")
	if warm.Visibility == cold.Visibility && warm.SupplyRate == cold.SupplyRate {
		t.Fatalf("the batch did not move the monitor (visibility %v, supply rate %v): the check above proves nothing",
			warm.Visibility, warm.SupplyRate)
	}

	// Paced single decides find a fresh pair each time and climb the ladder
	// back up, so the brownout clamp below has a level to change.
	for i := 0; i < 64; i++ {
		clk.Advance(50 * time.Microsecond)
		if err := srv.Decide(id, i&1, i>>1&1, &out); err != nil {
			t.Fatal(err)
		}
	}
	if info := check("paced decides"); levels[info.Level] >= float64(core.DegradeClassical) {
		t.Fatalf("paced decides left the session at %q: the brownout steps below would change nothing", info.Level)
	}

	clk.Advance(time.Millisecond)
	sess.playAt(clk.Now(), rounds, results, 0, true)
	if info := check("a browned-out batch"); !info.Brownout || info.Level != core.DegradeClassical.String() {
		t.Fatalf("browned-out batch left the session at %+v", info)
	}

	clk.Advance(time.Millisecond)
	if err := srv.Decide(id, 1, 1, &out); err != nil {
		t.Fatal(err)
	}
	if info := check("the brownout release"); info.Brownout {
		t.Fatal("a request admitted without brownout must release it")
	}

	sess.mu.Lock()
	sess.core.Health().Force(core.DegradeRandom)
	sess.mu.Unlock()
	if info := check("Force"); info.Level != core.DegradeRandom.String() {
		t.Fatalf("forced level reads %q", info.Level)
	}
}
