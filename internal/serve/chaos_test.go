package serve

import (
	"context"
	"testing"
	"time"
)

// TestChaosOutageUnderOverload is the satellite-3 chaos e2e: a scripted
// source outage lands WHILE the session is already in load-driven brownout
// at 2× saturation, and the two degradation mechanisms — the load rung
// (admission brownout) and the visibility ladder (supply/visibility
// signals) — must compose, not fight:
//
//   - classical floor: no sample ever reads "random" — neither mechanism
//     degrades past best-classical, even with both firing at once;
//   - the clamp: whenever brownout is engaged the served level is exactly
//     "classical" — brownout never exposes a better rung and never pushes
//     below the floor;
//   - pinned recovery order: load drains first, so the brownout rung
//     releases while the outage still holds the ladder at classical — the
//     session must NOT resume quantum service on brownout release alone;
//     only after the outage ends and the rolling supply signal recovers
//     does the level climb back to "quantum".
//
// Everything runs on a manual clock: arrivals, fault windows and rolling
// windows all advance deterministically, so the phase arithmetic below is
// exact (same model as TestDecideShedsOverHTTP: modeled service 100µs,
// backlog cap 10ms, brownout band 7.5ms enter / 2.5ms exit).
func TestChaosOutageUnderOverload(t *testing.T) {
	clk := newManualClock(testEpoch)
	cfg := testAdmission()
	cfg.BrownoutSustain = 3
	srv, c, _ := newAdmissionServer(t, Config{Clock: clk.Now, Admission: cfg})
	ctx := context.Background()

	// High priority: the hard 10ms cap is the only shed line, so every
	// decide below it must succeed — degradation, never refusal.
	if _, err := c.CreateSession(ctx, SessionRequest{
		ID:        "t-chaos",
		Endpoints: twoEndpoints(),
		PairRate:  1e5,
		PoolCap:   8,
		Seed:      6,
		Priority:  "high",
		Faults: []FaultWindow{
			{Kind: "source-outage", StartMS: 30, EndMS: 100},
		},
	}); err != nil {
		t.Fatal(err)
	}

	decide := func(phase string, step time.Duration, i int) DecideResponse {
		t.Helper()
		clk.Advance(step)
		d, err := c.Decide(ctx, "t-chaos", i%2, (i/2)%2)
		if err != nil {
			t.Fatalf("%s decide %d: %v", phase, i, err)
		}
		if d.Level == "random" {
			t.Fatalf("%s decide %d: level random — fell through the classical floor", phase, i)
		}
		return d
	}
	brownout := func() bool {
		t.Helper()
		info, err := c.Session(ctx, "t-chaos")
		if err != nil {
			t.Fatal(err)
		}
		return info.Brownout
	}

	// Phase A (t: 0 → 20ms): light load, healthy supply. Quantum service.
	var last DecideResponse
	for i := 0; i < 20; i++ {
		last = decide("healthy", time.Millisecond, i)
	}
	if last.Level != "quantum" || brownout() {
		t.Fatalf("healthy baseline: level=%q brownout=%v, want quantum/false", last.Level, brownout())
	}

	// Phase B (t: 20 → 28.5ms): 2× saturation — one arrival per 50µs
	// against a 100µs service model. Backlog grows 50µs per arrival,
	// crossing the 7.5ms brownout line at arrival ~150; with Sustain 3 the
	// rung engages by arrival ~153. The supply chain is still healthy, so
	// this phase is the pure clamp: ladder says quantum, load says
	// classical, classical wins.
	for i := 0; i < 170; i++ {
		last = decide("overload", 50*time.Microsecond, i)
	}
	if !srv.Admission().Brownout(0) || !brownout() {
		t.Fatal("2x overload did not engage brownout")
	}
	if last.Level != "classical" || last.Mode != "fallback" {
		t.Fatalf("brownout service: level=%q mode=%q, want classical/fallback", last.Level, last.Mode)
	}

	// Phase C (t: 28.5 → 45ms): the outage window opens at t=30ms while
	// still at 1× (backlog pinned at its brownout plateau). Both
	// mechanisms now demand classical; the composition must stay exactly
	// there — no double-degradation, no flapping, no sheds.
	for i := 0; i < 165; i++ {
		last = decide("outage+overload", 100*time.Microsecond, i)
		if last.Level != "classical" {
			t.Fatalf("outage decide %d: level %q, want classical (brownout clamp)", i, last.Level)
		}
	}
	if !brownout() || last.Level != "classical" {
		t.Fatalf("outage under overload: level=%q brownout=%v, want classical/true", last.Level, brownout())
	}

	// Phase D1 (t: 45 → 60ms): load drops to well under capacity while the
	// outage still runs. The backlog drains ~0.9ms per step, crosses the
	// 2.5ms exit line and — after 3 sustained observations — the brownout
	// rung releases. The outage is still open, so at the moment of release
	// the ladder must still hold the level at classical: recovery order is
	// load rung first, service level later.
	releaseAt := -1
	for i := 0; i < 15; i++ {
		last = decide("drain", time.Millisecond, i)
		if !srv.Admission().Brownout(0) {
			releaseAt = i
			break
		}
	}
	if releaseAt < 0 {
		t.Fatal("draining the backlog never released brownout")
	}
	if brownout() {
		t.Fatal("session info still reports brownout after the gate released")
	}
	if last.Level != "classical" {
		t.Fatalf("brownout released mid-outage with level %q, want classical (ladder still degraded)", last.Level)
	}

	// Phase D2 (t: → 200ms): the outage closes at t=100ms, the pool
	// refills, and the rolling supply signal climbs back over the recovery
	// margin — only now may the level return to quantum. Brownout must
	// stay released throughout (no flapping on light load).
	recovered := false
	for i := 0; i < 80; i++ {
		last = decide("recovery", 2*time.Millisecond, i)
		if srv.Admission().Brownout(0) {
			t.Fatalf("recovery decide %d: brownout re-engaged under light load", i)
		}
		if last.Level == "quantum" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("session never climbed back to quantum after the outage")
	}
}
