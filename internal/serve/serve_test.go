package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
	if got.ServerDecisions < rounds {
		t.Fatalf("server decisions = %d, want >= %d", got.ServerDecisions, rounds)
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
		"session_degrade_level{session=t-metrics}",
	} {
		if !strings.Contains(body, key) {
			t.Fatalf("metrics missing %q:\n%s", key, body)
		}
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
