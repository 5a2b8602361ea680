package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer mounts a Server on an httptest listener and returns it with
// a typed client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.StopSessions()
	})
	return srv, NewClient(ts.URL)
}

// twoEndpoints is the minimal valid endpoint group.
func twoEndpoints() []string { return []string{"lb-a", "lb-b"} }

// TestClientSessionIDRoundTrip: every ID CreateSession accepts must be
// readable back through the client. IDs carrying URL syntax ('?', '#', '/',
// '%') used to be spliced raw into the request path and came back 404 (or
// failed to parse); the client path-escapes the ID and the mux hands the
// handler the unescaped value.
// TestNewServerClampsShards: the stripe width is capped at MaxShards before
// the power-of-two rounding, which would otherwise overflow past 2⁶² and
// never end.
func TestNewServerClampsShards(t *testing.T) {
	for _, n := range []int{math.MaxInt, 1<<62 + 1, MaxShards + 1, MaxShards} {
		if got := len(NewServer(Config{Shards: n}).shards); got != MaxShards {
			t.Fatalf("Shards %d: %d stripes, want %d", n, got, MaxShards)
		}
	}
	if got := len(NewServer(Config{Shards: 3}).shards); got != 4 {
		t.Fatalf("Shards 3: %d stripes, want 4", got)
	}
}

func TestClientSessionIDRoundTrip(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	for _, id := range []string{"plain", "a?b", "a#b", "a/b", "50%", "sp ace", "ünï"} {
		if _, err := c.CreateSession(ctx, SessionRequest{ID: id, Endpoints: twoEndpoints()}); err != nil {
			t.Fatalf("create %q: %v", id, err)
		}
		got, err := c.Session(ctx, id)
		if err != nil {
			t.Fatalf("Session(%q): %v", id, err)
		}
		if got.ID != id {
			t.Fatalf("Session(%q) returned session %q", id, got.ID)
		}
		info, err := srv.Info(id)
		if err != nil || info.ID != id {
			t.Fatalf("Info(%q) = %q, %v", id, info.ID, err)
		}
	}
}

func TestCreateSessionAndInfo(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{
		ID:        "t-create-1",
		Endpoints: twoEndpoints(),
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "t-create-1" || info.Game != "colocation-CHSH" {
		t.Fatalf("unexpected identity: %+v", info)
	}
	if len(info.Endpoints) != 2 {
		t.Fatalf("endpoints lost: %+v", info.Endpoints)
	}
	// A fresh session starts at the healthy rung with the game's CHSH
	// thresholds.
	if info.Level != "quantum" {
		t.Fatalf("fresh session level = %q", info.Level)
	}
	if info.CriticalVisibility < 0.70 || info.CriticalVisibility > 0.72 {
		t.Fatalf("critical visibility = %v", info.CriticalVisibility)
	}
	if info.ClassicalValue != 0.75 {
		t.Fatalf("classical value = %v", info.ClassicalValue)
	}

	got, err := c.Session(ctx, "t-create-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != info.ID || got.Rounds != 0 {
		t.Fatalf("info mismatch: %+v", got)
	}
}

func TestCreateSessionGeneratesIDs(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	a, err := c.CreateSession(ctx, SessionRequest{Endpoints: twoEndpoints()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateSession(ctx, SessionRequest{Endpoints: twoEndpoints()})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || a.ID == b.ID {
		t.Fatalf("generated IDs not unique: %q vs %q", a.ID, b.ID)
	}
}

func TestCreateSessionConflictAndValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "dup", Endpoints: twoEndpoints()}); err != nil {
		t.Fatal(err)
	}
	_, err := c.CreateSession(ctx, SessionRequest{ID: "dup", Endpoints: twoEndpoints()})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("duplicate ID: got %v, want 409", err)
	}

	cases := []SessionRequest{
		{Endpoints: []string{"only-one"}},
		{Endpoints: twoEndpoints(), Game: "no-such-game"},
		{Endpoints: twoEndpoints(), PairBudget: -1},
		{Endpoints: twoEndpoints(), Faults: []FaultWindow{{Kind: "meteor-strike", StartMS: 1, EndMS: 2}}},
		{Endpoints: twoEndpoints(), Faults: []FaultWindow{{Kind: "fiber-loss-burst", StartMS: 1, EndMS: 2, Severity: 7}}},
		{Endpoints: twoEndpoints(), PairRate: -5},
	}
	for i, req := range cases {
		_, err := c.CreateSession(ctx, req)
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("case %d: got %v, want 400", i, err)
		}
	}
}

// TestCreateSessionRejectsUnboundedSupply: a session's catch-up work per
// request is ticks-per-25-ms, so the pair rate must be capped, and the two
// sizes whose negative values silently meant something else (an unlimited
// pool, core's health window instead of serve's) are refused, not reread.
func TestCreateSessionRejectsUnboundedSupply(t *testing.T) {
	srv := NewServer(Config{})
	t.Cleanup(srv.StopSessions)
	for _, tc := range []struct {
		name string
		req  SessionRequest
		want int
	}{
		{"pair rate 1e9", SessionRequest{PairRate: 1e9}, http.StatusBadRequest},
		{"pair rate just over the cap", SessionRequest{PairRate: 1.0001e7}, http.StatusBadRequest},
		{"negative pool cap", SessionRequest{PoolCap: -1}, http.StatusBadRequest},
		{"negative health window", SessionRequest{HealthWindow: -1}, http.StatusBadRequest},
		{"fiber delay overflows a Duration", SessionRequest{FiberLengthM: 1e19}, http.StatusBadRequest},
		{"pair rate at the cap", SessionRequest{PairRate: 1e7}, http.StatusCreated},
		{"defaults", SessionRequest{}, http.StatusCreated},
	} {
		tc.req.Endpoints = twoEndpoints()
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if rec := post(srv, "/v1/sessions", string(body)); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
}

func TestDecideRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{
		ID:        "t-decide",
		Endpoints: twoEndpoints(),
		PairRate:  1e5, // dense supply so quantum rounds appear quickly
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let a few pairs land in the pool before playing.
	time.Sleep(5 * time.Millisecond)
	quantum := 0
	const rounds = 64
	for i := 0; i < rounds; i++ {
		d, err := c.Decide(ctx, info.ID, i%2, (i/2)%2)
		if err != nil {
			t.Fatal(err)
		}
		if d.A&^1 != 0 || d.B&^1 != 0 {
			t.Fatalf("non-binary outputs: %+v", d)
		}
		if d.Mode == "quantum" {
			quantum++
			if d.Visibility <= 0.7 {
				t.Fatalf("quantum round at visibility %v", d.Visibility)
			}
		}
	}
	if quantum == 0 {
		t.Fatal("no quantum rounds despite dense supply")
	}
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", got.Rounds, rounds)
	}
	if got.QuantumRounds+got.FallbackRounds != rounds {
		t.Fatalf("mode split %d+%d != %d", got.QuantumRounds, got.FallbackRounds, rounds)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nserve_decisions_total %d\n", rounds); !strings.Contains("\n"+body, want) {
		t.Fatalf("metrics want %q:\n%s", strings.TrimSpace(want), body)
	}
	if got.WinRate < 0.5 {
		t.Fatalf("win rate %v below random play", got.WinRate)
	}
}

func TestDecideErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{ID: "t-errs", Endpoints: twoEndpoints()})
	if err != nil {
		t.Fatal(err)
	}
	var ae *APIError
	_, err = c.Decide(ctx, "no-such-session", 0, 0)
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown session: got %v, want 404", err)
	}
	_, err = c.Decide(ctx, info.ID, 5, 0)
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("out-of-alphabet input: got %v, want 400", err)
	}
	_, err = c.Session(ctx, "no-such-session")
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown session info: got %v, want 404", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{ID: "t-metrics", Endpoints: twoEndpoints()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(ctx, info.ID, 0, 0); err != nil {
		t.Fatal(err)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"serve_sessions_created_total",
		"serve_decisions_total",
		"serve_decide_count",
	} {
		if !strings.Contains(body, key) {
			t.Fatalf("metrics missing %q:\n%s", key, body)
		}
	}
	// A session's health is GET /v1/sessions/{id}'s to report.
	if strings.Contains(body, "session_") {
		t.Fatalf("metrics carry per-session keys:\n%s", body)
	}
}

// TestServersShareNothing: two servers in one process, the same session
// ID on each. What the first does moves none of the second's numbers.
func TestServersShareNothing(t *testing.T) {
	ctx := context.Background()
	_, a := newTestServer(t, Config{})
	_, b := newTestServer(t, Config{})
	if _, err := a.CreateSession(ctx, SessionRequest{ID: "x", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.Decide(ctx, "x", i%2, (i/2)%2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.CreateSession(ctx, SessionRequest{ID: "x", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	info, err := b.Session(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != 0 || info.Transitions != 0 {
		t.Fatalf("B reports %d rounds, %d transitions; A made all of them", info.Rounds, info.Transitions)
	}
	body, err := b.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"serve_sessions_created_total": "1",
		"serve_sessions_active":        "1",
		"serve_decisions_total":        "0",
	} {
		if !strings.Contains("\n"+body, "\n"+key+" "+want+"\n") {
			t.Fatalf("B's metrics want %s %s:\n%s", key, want, body)
		}
	}
	if strings.Contains(body, "session_") {
		t.Fatalf("B's metrics carry per-session keys:\n%s", body)
	}
	if body, err = a.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains("\n"+body, "\nserve_decisions_total 10\n") {
		t.Fatalf("A's metrics want serve_decisions_total 10:\n%s", body)
	}
}

func TestPairBudgetExhaustionDegradesSession(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{
		ID:         "t-budget",
		Endpoints:  twoEndpoints(),
		PairRate:   1e5,
		PairBudget: 40,
		PoolCap:    8,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At 1e5 pairs/s the 40-pair budget is spent within ~500µs of simulated
	// (= wall) time; every pool pair expires 100µs later.
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 64; i++ {
		if _, err := c.Decide(ctx, info.ID, i%2, i%2); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.BudgetExhausted {
		t.Fatalf("budget not exhausted: %+v", got)
	}
	if got.PairsDelivered != got.PairBudget {
		t.Fatalf("delivered %d, budget %d", got.PairsDelivered, got.PairBudget)
	}
	if got.Level != "classical" {
		t.Fatalf("exhausted session level = %q, want classical", got.Level)
	}
}

// TestPairBudgetIsExact is the regression test for the budget overshoot:
// the cap used to be checked only after an engine catch-up returned, so a
// 40-pair budget delivered every pair the catch-up covered (~2 280 in one
// 25 ms step). The source now stops itself on the arrival that spends the
// budget, however coarse the advance.
func TestPairBudgetIsExact(t *testing.T) {
	for _, step := range []time.Duration{20 * time.Microsecond, time.Millisecond, 25 * time.Millisecond} {
		clk := newManualClock(testEpoch)
		srv := NewServer(Config{Clock: clk.Now})
		t.Cleanup(srv.StopSessions)
		if _, err := srv.CreateSession(SessionRequest{
			ID: "t-exact", Endpoints: twoEndpoints(), PairBudget: 40, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		var out DecideResponse
		for i := 0; i < 100; i++ {
			clk.Advance(step)
			if err := srv.Decide("t-exact", i%2, i%2, &out); err != nil {
				t.Fatal(err)
			}
		}
		info, err := srv.Info("t-exact")
		if err != nil {
			t.Fatal(err)
		}
		if info.PairsDelivered != info.PairBudget || !info.BudgetExhausted {
			t.Fatalf("step %v: delivered %d of a %d-pair budget (exhausted=%v)",
				step, info.PairsDelivered, info.PairBudget, info.BudgetExhausted)
		}
	}
}

func TestFaultWindowDegradesAndRecovers(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{
		ID:        "t-fault",
		Endpoints: twoEndpoints(),
		PairRate:  1e5,
		PoolCap:   4, // small buffer: an outage starves consumption quickly
		Seed:      5,
		Faults: []FaultWindow{
			{Kind: "source-outage", StartMS: 10, EndMS: 60},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	deadline := time.Now().Add(2 * time.Second)
	// Drive decisions through the outage window; the session must step off
	// the quantum rung while the source is down.
	for time.Now().Before(deadline) {
		d, err := c.Decide(ctx, info.ID, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Level != "quantum" {
			sawDegraded = true
		}
		got, err := c.Session(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if sawDegraded && got.Level == "quantum" && got.SimNowNS > int64(60*time.Millisecond) {
			// Degraded during the window and recovered after it: done.
			if got.Transitions < 2 {
				t.Fatalf("transitions = %d, want >= 2", got.Transitions)
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("no degrade+recover cycle observed (sawDegraded=%v)", sawDegraded)
}

// TestFarFutureFaultWindowKeepsSessionLive: a fault window ~158 years out
// passes validation and leaves an event past 2⁶² ns in the session's engine
// behind the near window's two. Once the near window closes, decides and
// info reads must still be answered. Each call has its own deadline: a
// decide that panics while holding the session lock leaves every later call
// blocked, and the test must fail rather than hang.
func TestFarFutureFaultWindowKeepsSessionLive(t *testing.T) {
	clk := newManualClock(testEpoch)
	srv := NewServer(Config{Clock: clk.Now})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		if !t.Failed() { // Close would wait for a handler blocked on the wedged session
			ts.Close()
			srv.StopSessions()
		}
	})
	c := NewClient(ts.URL)
	call := func(what string, fn func(ctx context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := fn(ctx); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	call("create", func(ctx context.Context) error {
		_, err := c.CreateSession(ctx, SessionRequest{
			ID:        "t-far",
			Endpoints: twoEndpoints(),
			Faults: []FaultWindow{
				{Kind: "source-outage", StartMS: 1, EndMS: 2},
				{Kind: "pool-flush", StartMS: 5e12, EndMS: 5e12},
			},
		})
		return err
	})
	for i := 0; i < 3; i++ {
		clk.Advance(3 * time.Millisecond)
		call(fmt.Sprintf("decide %d", i), func(ctx context.Context) error {
			_, err := c.Decide(ctx, "t-far", i%2, 0)
			return err
		})
	}
	call("info", func(ctx context.Context) error {
		_, err := c.Session(ctx, "t-far")
		return err
	})
}

func TestDrainRejectsNewWorkAndCompletesInflight(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, SessionRequest{ID: "t-drain", Endpoints: twoEndpoints()})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the session lock so a decide is genuinely in flight (past the
	// drain gate, blocked mid-request) when drain starts.
	sess, _ := srv.lookup(info.ID)
	sess.mu.Lock()
	type result struct {
		resp DecideResponse
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		d, err := c.Decide(ctx, info.ID, 1, 1)
		inflight <- result{d, err}
	}()
	for srv.inflight.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	srv.StartDrain()

	// New work is refused with the retryable 503 contract.
	_, err = c.Decide(ctx, info.ID, 0, 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || !ae.Retryable() {
		t.Fatalf("decide during drain: got %v, want retryable 503", err)
	}
	_, err = c.CreateSession(ctx, SessionRequest{ID: "t-drain-2", Endpoints: twoEndpoints()})
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: got %v, want 503", err)
	}

	// The in-flight decision completes once unblocked, and Drain reports a
	// clean drain.
	done := make(chan int64, 1)
	go func() { done <- srv.Drain(5 * time.Second) }()
	time.Sleep(2 * time.Millisecond) // let Drain observe the in-flight decision
	sess.mu.Unlock()
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight decide failed: %v", r.err)
	}
	if left := <-done; left != 0 {
		t.Fatalf("drain left %d in flight", left)
	}

	// Health stays readable during drain and reports it.
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Draining {
		t.Fatal("info should report draining")
	}
}

// TestCreateRacingDrainIsStoppedOrRefused: sessions created while the
// server drains either land before StopSessions reads their shard, and are
// stopped with the rest, or are refused with ErrDraining — never registered
// after StopSessions has passed their shard with their source running.
func TestCreateRacingDrainIsStoppedOrRefused(t *testing.T) {
	const trials, creators = 60, 4
	for trial := 0; trial < trials; trial++ {
		srv := NewServer(Config{Shards: 4, Clock: func() time.Time { return testEpoch }})
		var created atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < creators; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := srv.CreateSession(SessionRequest{Endpoints: twoEndpoints()})
					if errors.Is(err, ErrDraining) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					created.Add(1)
				}
			}()
		}
		// Vary where the drain lands in the creators' loops: after 0 to 20
		// creates (the bound only matters if a creator failed).
		for start := time.Now(); created.Load() < int64(trial%6*4) && time.Since(start) < time.Second; {
			runtime.Gosched()
		}
		srv.StartDrain()
		srv.StopSessions()
		wg.Wait()
		if t.Failed() {
			return
		}
		if n := int64(srv.SessionCount()); n != created.Load() {
			t.Fatalf("trial %d: %d sessions registered, %d creates succeeded", trial, n, created.Load())
		}
		// A stopped source generates nothing however far its engine runs.
		for _, sh := range srv.shards {
			sh.slots.Load().each(func(sess *session) {
				sess.mu.Lock()
				before := sess.svc.Stats().Generated
				sess.engine.RunUntil(sess.engine.Now() + time.Millisecond)
				after := sess.svc.Stats().Generated
				sess.mu.Unlock()
				if after != before {
					t.Fatalf("trial %d: session %s generated %d pairs after StopSessions", trial, sess.id, after-before)
				}
			})
		}
	}
}

func TestConcurrentSessionsAndDecides(t *testing.T) {
	srv, c := newTestServer(t, Config{Shards: 8})
	ctx := context.Background()
	const sessions = 16
	const perSession = 40
	ids := make([]string, sessions)
	for i := range ids {
		info, err := c.CreateSession(ctx, SessionRequest{
			Endpoints: []string{"a", "b"},
			PairRate:  5e4,
			Seed:      uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	if n := srv.SessionCount(); n != sessions {
		t.Fatalf("session count = %d, want %d", n, sessions)
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				if _, err := c.Decide(ctx, id, i%2, (i+1)%2); err != nil {
					errs <- err
					return
				}
				if i%8 == 0 {
					if _, err := c.Session(ctx, id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := c.Session(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != perSession {
			t.Fatalf("session %s rounds = %d, want %d", id, got.Rounds, perSession)
		}
	}
}

func TestShardDistribution(t *testing.T) {
	srv := NewServer(Config{Shards: 8})
	defer srv.StopSessions()
	if len(srv.shards) != 8 {
		t.Fatalf("shard count = %d", len(srv.shards))
	}
	// FNV should not funnel distinct IDs into one stripe.
	seen := map[int]bool{}
	for _, id := range []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet"} {
		_, idx := srv.lookup(id)
		seen[idx] = true
	}
	if len(seen) < 3 {
		t.Fatalf("10 IDs landed in only %d shards", len(seen))
	}
	// Non-power-of-two widths round up.
	srv2 := NewServer(Config{Shards: 5})
	if len(srv2.shards) != 8 {
		t.Fatalf("rounded shard count = %d, want 8", len(srv2.shards))
	}
}

// TestShardTableFindsEverySession: one shard's table grows from two slots
// past a thousand sessions while a reader keeps finding the sessions already
// created, by string and by the decoder's byte view, and never finds one
// that is not there.
func TestShardTableFindsEverySession(t *testing.T) {
	srv := NewServer(Config{Shards: 1, Clock: func() time.Time { return testEpoch }})
	defer srv.StopSessions()
	const n = 1200
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t-table-%d", i)
	}
	var created atomic.Int64
	defer created.Store(n) // a failed create still ends the reader
	found := make(chan error, 1)
	go func() {
		for k := 0; created.Load() < n; k++ {
			have := int(created.Load())
			if have == 0 {
				runtime.Gosched()
				continue
			}
			id := ids[k%have]
			byString, _ := srv.lookup(id)
			byView, _ := find(srv, []byte(id))
			absent, _ := srv.lookup(id + "-absent")
			if byString == nil || byString.id != id || byView != byString || absent != nil {
				found <- fmt.Errorf("after %d creates, %s: by string %v, by view %v, absent %v", have, id, byString, byView, absent)
				return
			}
		}
		found <- nil
	}()
	for i, id := range ids {
		if _, err := srv.CreateSession(SessionRequest{ID: id, Endpoints: twoEndpoints()}); err != nil {
			t.Fatal(err)
		}
		created.Store(int64(i + 1))
	}
	if err := <-found; err != nil {
		t.Fatal(err)
	}
	if got := srv.SessionCount(); got != n {
		t.Fatalf("SessionCount = %d, want %d", got, n)
	}
	for _, id := range ids {
		if sess, _ := srv.lookup(id); sess == nil || sess.id != id {
			t.Fatalf("%s not found after every create", id)
		}
	}
	if _, err := srv.CreateSession(SessionRequest{ID: ids[n/2], Endpoints: twoEndpoints()}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create: %v, want ErrSessionExists", err)
	}
	if slots := len(*srv.shards[0].slots.Load()); slots < 2*n {
		t.Fatalf("%d sessions in %d slots: the table is past half full", n, slots)
	}
}

// TestScrapeDoesNotWaitOnSessionLock: /metrics reads the tallies without
// taking session locks, so a session held mid-decide — or left locked by a
// bug — neither delays a scrape nor hides its own count or its neighbors'.
func TestScrapeDoesNotWaitOnSessionLock(t *testing.T) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	defer srv.StopSessions()
	var out DecideResponse
	for _, id := range []string{"t-held", "t-free"} {
		if _, err := srv.CreateSession(SessionRequest{ID: id, Endpoints: twoEndpoints()}); err != nil {
			t.Fatal(err)
		}
		if err := srv.Decide(id, 0, 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	held, _ := srv.lookup("t-held")
	held.mu.Lock()
	defer held.mu.Unlock()
	scraped := make(chan map[string]float64, 1)
	go func() { scraped <- scrape(srv) }()
	select {
	case m := <-scraped:
		if got := m["serve_decisions_total"]; got != 2 {
			t.Fatalf("serve_decisions_total = %v with one session held, want 2", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GET /metrics is waiting on a held session lock")
	}
}
