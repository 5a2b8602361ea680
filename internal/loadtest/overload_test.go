package loadtest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
)

// overloadConfig is the headline overload workload: a decide-only stream
// against one session with a 5ms deadline budget, gated by an admission
// controller whose frozen-EWMA service model is 100µs/round. On the
// virtual clock that model IS the service time, so capacity is exactly
// 1/100µs = 10k decisions/sec and `rps` is offered load in units of
// saturations × 10k.
func overloadConfig(rps float64) Config {
	return Config{
		Seed:           42,
		Duration:       500 * time.Millisecond,
		TargetRPS:      rps,
		Sessions:       1,
		Scenarios:      []Scenario{{Name: "decide", Weight: 1, Batch: 1}},
		DeadlineBudget: 5 * time.Millisecond,
		Admission: &admission.Config{
			InitialService: 100 * time.Microsecond,
			MaxBacklog:     10 * time.Millisecond,
		},
	}
}

// TestOverloadGoodputHolds is the PR's headline acceptance test: at 3×
// saturation offered load the admission pipeline must keep goodput
// (in-deadline decisions/sec) at >= 80% of the single-saturation goodput,
// and every accepted decision must finish inside the 5ms budget. The run
// is virtual-time and fully deterministic, so the numbers are exact across
// runs and machines: at 1× the gate delivers 5019/5090 requests
// (goodput 10038/s, max 4.90ms); at 3× it sheds 10008 of 15056 and still
// delivers 5048 in-deadline (goodput 10096/s — 100.6% of 1×, against the
// 80% floor — max 4.90ms, zero late).
func TestOverloadGoodputHolds(t *testing.T) {
	res1, err := RunVirtual(overloadConfig(10_000))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := RunVirtual(overloadConfig(30_000))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1x: requests=%d decisions=%d shed=%d in=%d late=%d goodput=%.1f max=%v p999=%v",
		res1.Requests, res1.Decisions, res1.Shed, res1.InDeadline, res1.Late,
		res1.GoodputPerSec, time.Duration(res1.Latency.MaxNS), time.Duration(res1.Latency.P999NS))
	t.Logf("3x: requests=%d decisions=%d shed=%d in=%d late=%d goodput=%.1f max=%v p999=%v",
		res3.Requests, res3.Decisions, res3.Shed, res3.InDeadline, res3.Late,
		res3.GoodputPerSec, time.Duration(res3.Latency.MaxNS), time.Duration(res3.Latency.P999NS))

	if res1.Errors != 0 || res3.Errors != 0 {
		t.Fatalf("hard errors under overload: 1x=%d 3x=%d", res1.Errors, res3.Errors)
	}
	if res3.Shed == 0 {
		t.Fatal("3x saturation must shed")
	}
	if res3.GoodputPerSec < 0.8*res1.GoodputPerSec {
		t.Fatalf("goodput collapsed under 3x load: %.1f/s vs %.1f/s at 1x (want >= 80%%)",
			res3.GoodputPerSec, res1.GoodputPerSec)
	}
	// Every ACCEPTED decision finishes inside the budget: the Lindley gate
	// only admits requests whose modeled queue+service time fits, so the
	// recorded max (exact, unlike the <=1/32-error quantiles) stays under
	// 5ms and nothing is late.
	budget := int64(5 * time.Millisecond)
	if res3.Latency.MaxNS >= budget {
		t.Fatalf("accepted max latency %v >= budget %v", time.Duration(res3.Latency.MaxNS), time.Duration(budget))
	}
	if res3.Latency.P999NS >= budget {
		t.Fatalf("accepted p999 %v >= budget %v", time.Duration(res3.Latency.P999NS), time.Duration(budget))
	}
	if res3.Late != 0 {
		t.Fatalf("%d accepted decisions missed the deadline", res3.Late)
	}

	// The whole report is a pure function of the plan: rerunning the 3x
	// config must reproduce it byte for byte.
	again, err := RunVirtual(overloadConfig(30_000))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := res3.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := again.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("overload report is not byte-identical across runs")
	}
}

// TestOverloadCollapseWithoutShedding documents the pre-PR failure mode
// the admission gate exists to prevent. DisableShedding runs the same 3x
// plan observe-only (every request admitted — the pre-PR behavior): the
// unbounded queue grows ~2s of backlog per second of run, so only the
// first ~75 arrivals finish inside the 5ms budget and goodput collapses
// to 152/s — 1.5% of the 1× goodput, with a 1.0s max latency — versus
// 10096/s (100.6%) with shedding on. That two-orders-of-magnitude cliff
// is what the 80% acceptance floor in TestOverloadGoodputHolds is
// protecting.
func TestOverloadCollapseWithoutShedding(t *testing.T) {
	res1, err := RunVirtual(overloadConfig(10_000))
	if err != nil {
		t.Fatal(err)
	}
	collapse := overloadConfig(30_000)
	collapse.Admission.DisableShedding = true
	res, err := RunVirtual(collapse)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("collapse: decisions=%d shed=%d in=%d late=%d goodput=%.1f max=%v",
		res.Decisions, res.Shed, res.InDeadline, res.Late,
		res.GoodputPerSec, time.Duration(res.Latency.MaxNS))
	if res.Shed != 0 {
		t.Fatalf("observe-only run shed %d requests", res.Shed)
	}
	if res.GoodputPerSec > 0.2*res1.GoodputPerSec {
		t.Fatalf("disable-shedding run should collapse: goodput %.1f/s vs 1x %.1f/s",
			res.GoodputPerSec, res1.GoodputPerSec)
	}
	if res.Late == 0 {
		t.Fatal("unbounded backlog must produce late decisions")
	}
}

// TestWallCoordinatedOmissionUnderShedding: in wall mode, a request the
// server holds back must count its latency from its SCHEDULED arrival —
// through the whole wait — not from when it was finally served. A scripted
// window at the front of the run holds every decide request until it
// closes (as an overloaded server's queue would), so early arrivals wait
// out the window while late arrivals sail through, and the recorded tail
// must show the wait.
func TestWallCoordinatedOmissionUnderShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	const holdWindow = 100 * time.Millisecond
	srv := serve.NewServer(serve.Config{})
	var windowOnce sync.Once
	var windowEnd time.Time
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/decide") {
			windowOnce.Do(func() { windowEnd = time.Now().Add(holdWindow) })
			time.Sleep(time.Until(windowEnd))
		}
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(handler)
	defer func() {
		ts.Close()
		srv.StopSessions()
	}()
	client := serve.NewClient(ts.URL)

	cfg := Config{
		Seed:           11,
		Duration:       150 * time.Millisecond,
		TargetRPS:      200,
		Sessions:       1,
		Scenarios:      []Scenario{{Name: "decide", Weight: 1, Batch: 1}},
		DeadlineBudget: 60 * time.Millisecond,
	}
	res, err := RunWall(cfg, WallOptions{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wall: requests=%d decisions=%d errors=%d shed=%d in=%d late=%d max=%v p50=%v",
		res.Requests, res.Decisions, res.Errors, res.Shed, res.InDeadline, res.Late,
		time.Duration(res.Latency.MaxNS), time.Duration(res.Latency.P50NS))

	// Every request succeeds: the hold is invisible in the error counts...
	if res.Errors != 0 || res.Transport != 0 || res.Retryable != 0 || res.Shed != 0 {
		t.Fatalf("run with a hold window had failures: %+v", res)
	}
	if res.Decisions == 0 {
		t.Fatal("no decisions delivered")
	}
	// ...but NOT in the latency ledger. The earliest arrival (scheduled
	// near t=0) cannot complete before the window closes at ~100ms, so its
	// recorded latency must carry the full wait; a ledger that timed only
	// the server's own work would show a few milliseconds.
	if res.Latency.MaxNS < int64(80*time.Millisecond) {
		t.Fatalf("max latency %v too small: the hold was not charged from scheduled arrival",
			time.Duration(res.Latency.MaxNS))
	}
	// The 60ms budget splits the run: arrivals early in the window miss it
	// (they wait out the rest of the window), arrivals after the window
	// finish in microseconds. Both classes must be represented.
	if res.Late == 0 {
		t.Fatal("early-window arrivals should have missed the 60ms budget")
	}
	if res.InDeadline == 0 {
		t.Fatal("post-window arrivals should have met the 60ms budget")
	}
}
