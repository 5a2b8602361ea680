package serve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

// manualClock is a hand-advanced wall clock for driving sessions on a
// virtual time axis.
type manualClock struct {
	mu  chan struct{}
	now time.Time
}

func newManualClock(start time.Time) *manualClock {
	c := &manualClock{mu: make(chan struct{}, 1), now: start}
	c.mu <- struct{}{}
	return c
}

func (c *manualClock) Now() time.Time {
	<-c.mu
	t := c.now
	c.mu <- struct{}{}
	return t
}

func (c *manualClock) Advance(d time.Duration) {
	<-c.mu
	c.now = c.now.Add(d)
	c.mu <- struct{}{}
}

// testEpoch is an arbitrary fixed wall instant for injected clocks.
var testEpoch = time.Unix(1700000000, 0)

func TestDecideBatchRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-batch-1", Endpoints: twoEndpoints(), Seed: 9}); err != nil {
		t.Fatal(err)
	}
	rounds := make([]Round, 64)
	for i := range rounds {
		rounds[i] = Round{X: i % 2, Y: (i / 2) % 2}
	}
	results, err := c.DecideBatch(ctx, "t-batch-1", rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(rounds) {
		t.Fatalf("got %d results for %d rounds", len(results), len(rounds))
	}
	for i, r := range results {
		if r.Session != "t-batch-1" {
			t.Fatalf("result %d session = %q", i, r.Session)
		}
		if r.A != 0 && r.A != 1 || r.B != 0 && r.B != 1 {
			t.Fatalf("result %d outputs out of range: %+v", i, r)
		}
		if r.Mode == "" || r.Level == "" {
			t.Fatalf("result %d missing mode/level: %+v", i, r)
		}
	}
	info, err := c.Session(ctx, "t-batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != int64(len(rounds)) {
		t.Fatalf("session played %d rounds, want %d", info.Rounds, len(rounds))
	}
}

func TestDecideBatchErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-batch-err", Endpoints: twoEndpoints()}); err != nil {
		t.Fatal(err)
	}

	// Empty batch is a 400.
	if _, err := c.DecideBatch(ctx, "t-batch-err", nil); err == nil {
		t.Fatal("empty batch must fail")
	}

	// Unknown session is a 404.
	var ae *APIError
	if _, err := c.DecideBatch(ctx, "nope", []Round{{X: 0, Y: 0}}); !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("unknown session: %v", err)
	}

	// A bad round anywhere in the batch fails the whole batch: nothing plays
	// (all-or-nothing), so the client never guesses which prefix executed.
	bad := []Round{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 7, Y: 0}}
	if _, err := c.DecideBatch(ctx, "t-batch-err", bad); err == nil {
		t.Fatal("out-of-alphabet round must fail the batch")
	}
	info, err := c.Session(ctx, "t-batch-err")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != 0 {
		t.Fatalf("failed batch still played %d rounds", info.Rounds)
	}
}

// TestInfoDoesNotAdvancePerPoll: health polls within infoAdvanceTick must
// not fast-forward the session engine — they'd otherwise perturb (and
// serialize against) the decide path.
func TestInfoDoesNotAdvancePerPoll(t *testing.T) {
	clk := newManualClock(testEpoch)
	srv := NewServer(Config{Clock: clk.Now})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-info", Endpoints: twoEndpoints(), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	sess, _ := srv.lookup("t-info")

	// Sub-tick polls: virtual clock frozen.
	clk.Advance(infoAdvanceTick / 2)
	before := sess.info(false, clk.Now()).SimNowNS
	clk.Advance(infoAdvanceTick / 4)
	if got := sess.info(false, clk.Now()).SimNowNS; got != before {
		t.Fatalf("sub-tick poll advanced engine: %d -> %d", before, got)
	}

	// Crossing the tick advances once.
	clk.Advance(2 * infoAdvanceTick)
	if got := sess.info(false, clk.Now()).SimNowNS; got <= before {
		t.Fatalf("tick-crossing poll did not advance engine: %d -> %d", before, got)
	}
}

// TestAppendEncoderMatchesEncodingJSON pins the hand-rolled response encoder
// to encoding/json: every response it renders must decode back to the same
// struct, and must byte-match the standard library's rendering.
func TestAppendEncoderMatchesEncodingJSON(t *testing.T) {
	cases := []DecideResponse{
		{},
		{Session: "s-000001", A: 1, B: 0, Mode: "quantum", Level: "quantum",
			Visibility: 0.9786, LatencyNS: 1000, WaitedNS: 0, Win: true},
		{Session: `we"ird\se√s` + "\n\tsion\x01", A: 0, B: 1, Mode: "classical",
			Level: "classical-only", Visibility: 0.5, LatencyNS: -3, WaitedNS: 12345678901234, Win: false},
		{Session: "bad-utf8-\xff-tail", Visibility: 1},
		{Visibility: 1e-9},
		{Visibility: 2e21, LatencyNS: 9223372036854775807},
	}
	for i, want := range cases {
		raw := want.appendJSON(nil)
		std, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(std) {
			t.Fatalf("case %d: append encoder\n %s\nencoding/json\n %s", i, raw, std)
		}
		var got DecideResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("case %d: round trip: %v\n%s", i, err, raw)
		}
		// Invalid UTF-8 is replaced (same as encoding/json), so compare the
		// decoded form of what the standard library produced.
		var fromStd DecideResponse
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fromStd) {
			t.Fatalf("case %d: decoded %+v, want %+v", i, got, fromStd)
		}
	}

	// Batch wrapper pin.
	results := []DecideResponse{cases[1], cases[2]}
	raw := appendBatchJSON(nil, "s-1", results)
	std, err := json.Marshal(DecideBatchResponse{Session: "s-1", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(std) {
		t.Fatalf("batch encoder\n %s\nencoding/json\n %s", raw, std)
	}
}

// TestDecideInProcessAllocs is the allocs/op regression gate for the decide
// hot path: with a frozen clock (no engine catch-up work) a steady-state
// in-process decision must not allocate at all.
func TestDecideInProcessAllocs(t *testing.T) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-allocs", Endpoints: twoEndpoints(), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var out DecideResponse
	// Warm the path (first rounds may lazily touch pool state).
	for i := 0; i < 64; i++ {
		if err := srv.Decide("t-allocs", i%2, (i/2)%2, &out); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		if err := srv.Decide("t-allocs", i%2, (i/2)%2, &out); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("in-process decide allocates %v per op; the hot path must be allocation-free", avg)
	}
}

// TestDecideBatchInProcessAllocs extends the gate to the batch path: one
// batch of 64 rounds into a caller-owned result slice must not allocate.
func TestDecideBatchInProcessAllocs(t *testing.T) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-ballocs", Endpoints: twoEndpoints(), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	rounds := make([]Round, 64)
	for i := range rounds {
		rounds[i] = Round{X: i % 2, Y: (i / 2) % 2}
	}
	out := make([]DecideResponse, len(rounds))
	if err := srv.DecideBatch("t-ballocs", rounds, out); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := srv.DecideBatch("t-ballocs", rounds, out); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("in-process batch decide allocates %v per op", avg)
	}
}

// TestDecideAdvancingClockAllocs closes the gap the frozen-clock gates
// leave: with the clock moving, every decide pays an engine catch-up, and
// the catch-up — source ticks, pairs in flight, pool expiry — must stay off
// the heap too, whether it covers two pairs (20 µs) or the full 25 ms cap.
func TestDecideAdvancingClockAllocs(t *testing.T) {
	for _, step := range []time.Duration{20 * time.Microsecond, 25 * time.Millisecond} {
		clk := newManualClock(testEpoch)
		srv := NewServer(Config{Clock: clk.Now})
		t.Cleanup(srv.StopSessions)
		if _, err := srv.CreateSession(SessionRequest{ID: "t-moving", Endpoints: twoEndpoints(), Seed: 5}); err != nil {
			t.Fatal(err)
		}
		var out DecideResponse
		i := 0
		decide := func() {
			clk.Advance(step)
			if err := srv.Decide("t-moving", i%2, (i/2)%2, &out); err != nil {
				t.Fatal(err)
			}
			i++
		}
		// Warm past the transients: the pool and in-flight rings reach their
		// steady size, and the health ladder settles on its rung (moving
		// between rungs re-solves the game's strategy, which allocates).
		for w := 0; w < 2000; w++ {
			decide()
		}
		if avg := testing.AllocsPerRun(500, decide); avg != 0 {
			t.Fatalf("decide with the clock stepping %v allocates %v per op", step, avg)
		}
	}
}

// TestClockInjectionDeterminism: two servers driven by the same virtual
// clock schedule and seeds must emit byte-identical decision streams.
func TestClockInjectionDeterminism(t *testing.T) {
	run := func() []DecideResponse {
		clk := newManualClock(testEpoch)
		srv := NewServer(Config{Clock: clk.Now})
		defer srv.StopSessions()
		if _, err := srv.CreateSession(SessionRequest{ID: "t-det", Endpoints: twoEndpoints(), Seed: 77}); err != nil {
			t.Fatal(err)
		}
		var stream []DecideResponse
		var out DecideResponse
		for i := 0; i < 300; i++ {
			clk.Advance(20 * time.Microsecond)
			if err := srv.Decide("t-det", i%2, (i/3)%2, &out); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, out)
		}
		return stream
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical virtual schedules produced different decision streams")
	}
}
