package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/metrics"
)

// post drives one request through ServeHTTP without a listener, so the
// handler runs on the test goroutine under the injected clock.
func post(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// errorText extracts the message from the JSON error envelope.
func errorText(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var ae apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
		t.Fatalf("status %d: body is not an error envelope: %v\n%s", rec.Code, err, rec.Body)
	}
	return ae.Error
}

// deadlineField renders the optional wire deadline.
func deadlineField(deadline time.Time) string {
	if deadline.IsZero() {
		return ""
	}
	return fmt.Sprintf(`,"deadline_unix_ns":%d`, deadline.UnixNano())
}

// door is one decide entry point reduced to "play one round". Every door
// leads to the same pipeline; batch and http name the only differences a
// caller may observe (the batch counter and the handler timers).
type door struct {
	name  string
	batch bool // counts into serve_decide_batches_total
	http  bool // observes serve_decide / serve_decide_batch
	// stamped doors can carry a deadline; Decide cannot.
	stamped bool
	play    func(srv *Server, id string, deadline time.Time, x, y int) (DecideResponse, error)
}

// httpDoor posts body to path and maps the answer back onto the in-process
// shape: the response, or the server's error text.
func httpDoor(path string, body func(id string, deadline time.Time, x, y int) string, pick func([]byte) (DecideResponse, error)) func(*Server, string, time.Time, int, int) (DecideResponse, error) {
	return func(srv *Server, id string, deadline time.Time, x, y int) (DecideResponse, error) {
		rec := post(srv, path, body(id, deadline, x, y))
		if rec.Code != http.StatusOK {
			var ae apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
				return DecideResponse{}, err
			}
			return DecideResponse{}, errors.New(ae.Error)
		}
		return pick(rec.Body.Bytes())
	}
}

var doors = []door{
	{name: "Decide", play: func(srv *Server, id string, _ time.Time, x, y int) (DecideResponse, error) {
		var out DecideResponse
		err := srv.Decide(id, x, y, &out)
		return out, err
	}},
	{name: "DecideBatch/1", batch: true, stamped: true, play: func(srv *Server, id string, deadline time.Time, x, y int) (DecideResponse, error) {
		var out [1]DecideResponse
		rounds := []Round{{X: x, Y: y}}
		if deadline.IsZero() {
			return out[0], srv.DecideBatch(id, rounds, out[:])
		}
		err := srv.DecideBatchDeadline(id, deadline, rounds, out[:])
		return out[0], err
	}},
	{name: "POST /v1/decide", http: true, stamped: true, play: httpDoor("/v1/decide",
		func(id string, deadline time.Time, x, y int) string {
			return fmt.Sprintf(`{"session":%q,"x":%d,"y":%d%s}`, id, x, y, deadlineField(deadline))
		},
		func(b []byte) (DecideResponse, error) {
			var out DecideResponse
			return out, json.Unmarshal(b, &out)
		})},
	{name: "POST /v1/decide/batch/1", batch: true, http: true, stamped: true, play: httpDoor("/v1/decide/batch",
		func(id string, deadline time.Time, x, y int) string {
			return fmt.Sprintf(`{"session":%q,"rounds":[{"x":%d,"y":%d}]%s}`, id, x, y, deadlineField(deadline))
		},
		func(b []byte) (DecideResponse, error) {
			var out DecideBatchResponse
			if err := json.Unmarshal(b, &out); err != nil {
				return DecideResponse{}, err
			}
			if len(out.Results) != 1 {
				return DecideResponse{}, fmt.Errorf("batch of one answered %d results", len(out.Results))
			}
			return out.Results[0], nil
		})},
}

// doorStep is one scheduled request: advance the clock, then play (x, y)
// with the given budget (0 = unstamped).
type doorStep struct {
	advance time.Duration
	budget  time.Duration
}

// doorTally is everything one door's run may change that a caller can see.
type doorTally struct {
	Decisions, Goodput, Late, Accepted, Shed int64
	Batches, DecideTimer, BatchTimer         int64
}

// scrape reads the server's GET /metrics into a map.
func scrape(srv *Server) map[string]float64 {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		key, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			panic(fmt.Sprintf("metrics line %q: %v", line, err))
		}
		m[key] = v
	}
	return m
}

// count reads one key of the server's /metrics; a key it does not render
// (admission off) reads 0.
func (srv *Server) count(key string) int64 { return int64(scrape(srv)[key]) }

func shedTotal(m map[string]float64) int64 {
	var n int64
	for o := admission.ShedDeadline; o <= admission.ShedExpired; o++ {
		n += int64(m[metrics.Key("admission_shed_total", "reason", o.String())])
	}
	return n
}

func (srv *Server) tally() doorTally {
	m := scrape(srv)
	return doorTally{
		Decisions:   int64(m["serve_decisions_total"]),
		Goodput:     int64(m["serve_goodput_count"]),
		Late:        int64(m["serve_late_total"]),
		Accepted:    int64(m["admission_accepted_total"]),
		Shed:        shedTotal(m),
		Batches:     int64(m["serve_decide_batches_total"]),
		DecideTimer: int64(m["serve_decide_count"]),
		BatchTimer:  int64(m["serve_decide_batch_count"]),
	}
}

func (a doorTally) minus(b doorTally) doorTally {
	return doorTally{
		a.Decisions - b.Decisions, a.Goodput - b.Goodput, a.Late - b.Late, a.Accepted - b.Accepted, a.Shed - b.Shed,
		a.Batches - b.Batches, a.DecideTimer - b.DecideTimer, a.BatchTimer - b.BatchTimer,
	}
}

// TestInProcessDecideMatchesHTTP — every door, same room: the four decide
// entry points, driven through the same schedule on identically seeded
// servers under one injected clock, must emit identical decision streams
// and move the shared counters identically, with admission off and on. The
// only differences a door may show are the ones it is named for: HTTP doors
// observe the handler timers, batch doors count batches.
func TestInProcessDecideMatchesHTTP(t *testing.T) {
	// Unstamped: a frozen-clock burst long enough to cross the normal tier's
	// shed threshold (60 × 100µs) when admission is on, a drain, then a
	// moving clock so the supply chain delivers pairs and quantum rounds
	// appear in the compared streams.
	var unstamped []doorStep
	for i := 0; i < 70; i++ {
		unstamped = append(unstamped, doorStep{})
	}
	unstamped = append(unstamped, doorStep{advance: 20 * time.Millisecond})
	for i := 0; i < 60; i++ {
		unstamped = append(unstamped, doorStep{advance: 150 * time.Microsecond})
	}
	// Stamped: budgets on both sides of the ~1µs decision latency and of the
	// 100µs modeled service time — late without admission, shed with it.
	var stamped []doorStep
	for i := 0; i < 40; i++ {
		budget := time.Second
		switch i % 4 {
		case 1:
			budget = 50 * time.Microsecond
		case 3:
			budget = 200 * time.Nanosecond
		}
		stamped = append(stamped, doorStep{advance: 120 * time.Microsecond, budget: budget})
	}

	type outcome struct {
		Resp DecideResponse
		Err  string
	}
	for _, tc := range []struct {
		name      string
		admission bool
		stamped   bool
		steps     []doorStep
	}{
		{"admission-off/unstamped", false, false, unstamped},
		{"admission-on/unstamped", true, false, unstamped},
		{"admission-off/stamped", false, true, stamped},
		{"admission-on/stamped", true, true, stamped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wantStream []outcome
			var want doorTally
			var wantFrom string
			for _, d := range doors {
				if tc.stamped && !d.stamped {
					continue
				}
				clk := newManualClock(testEpoch)
				cfg := Config{Clock: clk.Now}
				if tc.admission {
					cfg.Admission = testAdmission()
				}
				srv := NewServer(cfg)
				t.Cleanup(srv.StopSessions)
				if _, err := srv.CreateSession(SessionRequest{ID: "t-doors", Endpoints: twoEndpoints(), Seed: 21}); err != nil {
					t.Fatal(err)
				}
				before := srv.tally()
				var stream []outcome
				var ok, quantum int64
				for i, st := range tc.steps {
					clk.Advance(st.advance)
					var deadline time.Time
					if st.budget > 0 {
						deadline = clk.Now().Add(st.budget)
					}
					resp, err := d.play(srv, "t-doors", deadline, i%2, (i/2)%2)
					o := outcome{Resp: resp}
					if err != nil {
						o.Err = err.Error()
					} else {
						ok++
						if resp.Mode == "quantum" {
							quantum++
						}
					}
					stream = append(stream, o)
				}
				got := srv.tally().minus(before)

				// The differences a door is named for, asserted outright.
				var wantBatches, wantDecideTimer, wantBatchTimer int64
				if d.batch {
					wantBatches = ok
				}
				if d.http {
					wantDecideTimer = ok
					if d.batch {
						wantBatchTimer = ok
					}
				}
				if got.Batches != wantBatches || got.DecideTimer != wantDecideTimer || got.BatchTimer != wantBatchTimer {
					t.Fatalf("%s: batches/decide-timer/batch-timer = %d/%d/%d, want %d/%d/%d",
						d.name, got.Batches, got.DecideTimer, got.BatchTimer, wantBatches, wantDecideTimer, wantBatchTimer)
				}
				got.Batches, got.DecideTimer, got.BatchTimer = 0, 0, 0

				// The schedule must actually exercise what it claims to.
				if quantum == 0 || got.Decisions != ok || got.Goodput+got.Late != ok {
					t.Fatalf("%s: quantum=%d ok=%d tally=%+v", d.name, quantum, ok, got)
				}
				if tc.admission && (got.Shed == 0 || got.Accepted != ok) {
					t.Fatalf("%s: admission on but tally=%+v (ok=%d)", d.name, got, ok)
				}
				if !tc.admission && (got.Shed != 0 || got.Accepted != 0 || ok != int64(len(tc.steps))) {
					t.Fatalf("%s: admission off but tally=%+v (ok=%d)", d.name, got, ok)
				}
				if tc.stamped && !tc.admission && got.Late == 0 {
					t.Fatalf("%s: sub-latency budgets never counted late: %+v", d.name, got)
				}

				if wantStream == nil {
					wantStream, want, wantFrom = stream, got, d.name
					continue
				}
				if got != want {
					t.Fatalf("%s moved the counters %+v, %s moved them %+v", d.name, got, wantFrom, want)
				}
				for i := range stream {
					if stream[i] != wantStream[i] {
						t.Fatalf("step %d: %s answered %+v, %s answered %+v", i, d.name, stream[i], wantFrom, wantStream[i])
					}
				}
			}
		})
	}
}

// wireCase is one row of the decide endpoints' error contract: a body, the
// state it arrives in, and the status, Retry-After and error text it draws.
type wireCase struct {
	name       string
	path       string
	body       string
	arrange    func(t *testing.T, srv *Server) // optional pre-request state
	status     int
	retryAfter string
	text       string // exact error text; prefix match when it ends in "…"
}

// decideWireCases is the error table TestDecideWireErrors asserts row by
// row; TestWireParity replays its bodies against strings recorded before
// the fast-path decoder existed.
func decideWireCases() []wireCase {
	const single, batch = "/v1/decide", "/v1/decide/batch"
	past := deadlineField(testEpoch.Add(-time.Hour))
	tight := deadlineField(testEpoch.Add(50 * time.Microsecond)) // under the 100µs modeled service time
	drain := func(_ *testing.T, srv *Server) { srv.StartDrain() }
	// holdSlot takes the limiter's only slot for the rest of the test.
	holdSlot := func(t *testing.T, srv *Server) {
		if !srv.Admission().Limiter().TryAcquire() {
			t.Fatal("limiter slot already taken")
		}
	}
	// fillQueue also parks one unstamped request in the limiter's one-deep
	// queue, so the next arrival finds it full. The parked request is
	// released (and must succeed) when the test ends.
	fillQueue := func(t *testing.T, srv *Server) {
		holdSlot(t, srv)
		parked := make(chan int, 1)
		go func() { parked <- post(srv, single, `{"session":"t-wire","x":0,"y":0}`).Code }()
		for srv.Admission().Limiter().Queued() != 1 {
			time.Sleep(100 * time.Microsecond)
		}
		t.Cleanup(func() {
			srv.Admission().Limiter().Release(0, nil)
			if code := <-parked; code != http.StatusOK {
				t.Errorf("parked request finished with %d, want 200", code)
			}
		})
	}
	return []wireCase{
		{name: "drain", path: single, body: `{"session":"t-wire","x":0,"y":0}`, arrange: drain,
			status: 503, retryAfter: "1", text: "server is draining"},
		{name: "drain", path: batch, body: `{"session":"t-wire","rounds":[{"x":0,"y":0}]}`, arrange: drain,
			status: 503, retryAfter: "1", text: "server is draining"},
		{name: "unknown session", path: single, body: `{"session":"nope","x":0,"y":0}`,
			status: 404, text: `no session "nope"`},
		{name: "unknown session", path: batch, body: `{"session":"nope","rounds":[{"x":0,"y":0}]}`,
			status: 404, text: `no session "nope"`},
		{name: "bad JSON", path: single, body: `{"session":"t-wire","x":`,
			status: 400, text: "bad decide request: …"},
		{name: "bad JSON", path: batch, body: `{"session":"t-wire","rounds":[{"x":0`,
			status: 400, text: "bad batch request: …"},
		{name: "wrong type", path: single, body: `{"session":"t-wire","x":"one","y":0}`,
			status: 400, text: "bad decide request: …"},
		{name: "body too large", path: batch, body: `{"session":"t-wire","rounds":[` + strings.Repeat(" ", maxBodyBytes) + `]}`,
			status: 400, text: "bad batch request: serve: request body too large"},
		{name: "empty batch", path: batch, body: `{"session":"t-wire","rounds":[]}`,
			status: 400, text: "batch has no rounds"},
		{name: "missing rounds", path: batch, body: `{"session":"t-wire"}`,
			status: 400, text: "batch has no rounds"},
		{name: "bad round", path: single, body: `{"session":"t-wire","x":7,"y":0}`,
			status: 400, text: "decide: inputs (7,0) outside game alphabet 2x2"},
		{name: "bad round", path: batch, body: `{"session":"t-wire","rounds":[{"x":0,"y":0},{"x":0,"y":1},{"x":0,"y":-1}]}`,
			status: 400, text: "decide: round 2: inputs (0,-1) outside game alphabet 2x2"},
		{name: "deadline gate", path: single, body: `{"session":"t-wire","x":0,"y":0` + tight + `}`,
			status: 429, retryAfter: "1", text: "serve: overloaded (shed: deadline)"},
		{name: "deadline gate", path: batch, body: `{"session":"t-wire","rounds":[{"x":0,"y":0}]` + tight + `}`,
			status: 429, retryAfter: "1", text: "serve: overloaded (shed: deadline)"},
		{name: "expired in limiter queue", path: single, body: `{"session":"t-wire","x":0,"y":0` + past + `}`, arrange: holdSlot,
			status: 429, retryAfter: "1", text: "serve: overloaded (shed: expired)"},
		{name: "expired in limiter queue", path: batch, body: `{"session":"t-wire","rounds":[{"x":0,"y":0}]` + past + `}`, arrange: holdSlot,
			status: 429, retryAfter: "1", text: "serve: overloaded (shed: expired)"},
		{name: "limiter queue full", path: single, body: `{"session":"t-wire","x":0,"y":0}`, arrange: fillQueue,
			status: 429, retryAfter: "1", text: "serve: overloaded (shed: limiter)"},
		{name: "limiter queue full", path: batch, body: `{"session":"t-wire","rounds":[{"x":0,"y":0}]}`, arrange: fillQueue,
			status: 429, retryAfter: "1", text: "serve: overloaded (shed: limiter)"},
	}
}

// TestDecideWireErrors pins the error half of the wire contract for both
// decide endpoints: status code, Retry-After and error text.
func TestDecideWireErrors(t *testing.T) {
	for _, tc := range decideWireCases() {
		t.Run(tc.name+" "+tc.path, func(t *testing.T) {
			cfg := testAdmission()
			cfg.Limiter = admission.LimiterConfig{Initial: 1, Min: 1, Max: 1, QueueDepth: 1}
			srv := NewServer(Config{Clock: func() time.Time { return testEpoch }, Admission: cfg})
			t.Cleanup(srv.StopSessions)
			if _, err := srv.CreateSession(SessionRequest{ID: "t-wire", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
				t.Fatal(err)
			}
			if tc.arrange != nil {
				tc.arrange(t, srv)
			}
			rec := post(srv, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d; body %s", rec.Code, tc.status, rec.Body)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			got := errorText(t, rec)
			if prefix, ok := strings.CutSuffix(tc.text, "…"); ok {
				if !strings.HasPrefix(got, prefix) || got == prefix {
					t.Fatalf("error %q, want prefix %q plus a cause", got, prefix)
				}
			} else if got != tc.text {
				t.Fatalf("error %q, want %q", got, tc.text)
			}
			// No error answer plays a round.
			info, err := srv.Info("t-wire")
			if err != nil {
				t.Fatal(err)
			}
			if info.Rounds != 0 {
				t.Fatalf("an error response still played %d rounds", info.Rounds)
			}
		})
	}
}

// TestInvalidInputsTakeNoAdmission: a request with an out-of-alphabet round
// plays nothing, so it must cost the admission gate nothing either — no
// limiter slot, no charge to the modeled backlog, no sample into the
// service-time EWMA. Validating after admission let a client posting invalid
// batches shed every well-formed session on the server.
func TestInvalidInputsTakeNoAdmission(t *testing.T) {
	bad := []Round{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 0, Y: 0},
		{X: 1, Y: 1}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 0, Y: 0}, {X: 2, Y: 0}}
	badJSON, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	// refused posts body and returns the 400 it must draw (nil otherwise).
	refused := func(srv *Server, path, body string) error {
		if rec := post(srv, path, body); rec.Code == http.StatusBadRequest {
			return errors.New(rec.Body.String())
		}
		return nil
	}
	for _, send := range []struct {
		name string
		bad  func(srv *Server) error
	}{
		{"DecideBatch", func(srv *Server) error {
			return srv.DecideBatch("t-invalid", bad, make([]DecideResponse, len(bad)))
		}},
		{"Decide", func(srv *Server) error {
			return srv.Decide("t-invalid", 2, 0, new(DecideResponse))
		}},
		{"POST /v1/decide/batch", func(srv *Server) error {
			return refused(srv, "/v1/decide/batch", `{"session":"t-invalid","rounds":`+string(badJSON)+`}`)
		}},
		{"POST /v1/decide", func(srv *Server) error {
			return refused(srv, "/v1/decide", `{"session":"t-invalid","x":2,"y":0}`)
		}},
	} {
		t.Run(send.name, func(t *testing.T) {
			// A clock that ticks on every read, so a request that reaches the
			// deferred Observe measures a positive (and absurdly small)
			// service time.
			now := testEpoch
			clock := func() time.Time { now = now.Add(time.Microsecond); return now }
			srv := NewServer(Config{Clock: clock, Admission: testAdmission()})
			t.Cleanup(srv.StopSessions)
			if _, err := srv.CreateSession(SessionRequest{ID: "t-invalid", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
				t.Fatal(err)
			}
			adm := srv.Admission()
			est := adm.Estimate(0)
			for i := 0; i < 50; i++ {
				if err := send.bad(srv); err == nil {
					t.Fatal("out-of-alphabet input was not refused")
				}
			}
			if got := srv.count("admission_accepted_total"); got != 0 {
				t.Fatalf("%d invalid requests were admitted", got)
			}
			if got := adm.Backlog(0, clock()); got != 0 {
				t.Fatalf("invalid requests left a modeled backlog of %v", got)
			}
			if got := adm.Estimate(0); got != est {
				t.Fatalf("invalid requests moved the service estimate %v -> %v", est, got)
			}
			if got := adm.Limiter().Inflight(); got != 0 {
				t.Fatalf("limiter inflight = %d after invalid requests", got)
			}
			// A well-formed request with a budget that only an empty queue
			// can meet is still accepted.
			var out [1]DecideResponse
			if err := srv.DecideBatchDeadline("t-invalid", clock().Add(500*time.Microsecond), []Round{{X: 1, Y: 1}}, out[:]); err != nil {
				t.Fatalf("valid decide after invalid traffic: %v", err)
			}
		})
	}
}

// TestClientZeroDeadlineIsUnstamped: a zero time.Time through the client
// must reach the server as the wire's "0 = unstamped", not as
// time.Time{}.UnixNano() — a deadline in the year 1754 that an
// admission-enabled server sheds and any other server counts as late.
func TestClientZeroDeadlineIsUnstamped(t *testing.T) {
	ctx := context.Background()
	rounds := []Round{{X: 0, Y: 1}}
	for _, adm := range []*admission.Config{nil, testAdmission()} {
		srv, c, _ := newAdmissionServer(t, Config{Clock: func() time.Time { return testEpoch }, Admission: adm})
		if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-zero", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		late := srv.count("serve_late_total")
		if _, err := c.DecideBatchDeadline(ctx, "t-zero", time.Time{}, rounds); err != nil {
			t.Fatalf("admission=%v: zero deadline: %v", adm != nil, err)
		}
		if _, err := c.DecideBatch(ctx, "t-zero", rounds); err != nil {
			t.Fatalf("admission=%v: DecideBatch: %v", adm != nil, err)
		}
		if got := srv.count("serve_late_total") - late; got != 0 {
			t.Fatalf("admission=%v: %d unstamped decisions counted late", adm != nil, got)
		}
		// A real deadline still travels.
		if adm != nil {
			var ae *APIError
			if _, err := c.DecideBatchDeadline(ctx, "t-zero", testEpoch.Add(-time.Hour), rounds); !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
				t.Fatalf("lapsed deadline: got %v, want 429", err)
			}
		}
	}
}
