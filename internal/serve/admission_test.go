package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
)

// testAdmission is the admission config the serving tests share: a 100µs
// modeled service quantum against a 10ms backlog cap, so with a frozen
// clock the Nth decide carries a modeled backlog of N×100µs and the shed
// thresholds sit at 40 (low), 60 (normal) and 100 (hard cap) requests.
func testAdmission() *admission.Config {
	return &admission.Config{
		InitialService: 100 * time.Microsecond,
		MaxBacklog:     10 * time.Millisecond,
	}
}

// newAdmissionServer mounts an admission-enabled server on an httptest
// listener, returning the server, a typed client and the base URL (for
// raw-HTTP assertions the typed client does not expose, like headers).
func newAdmissionServer(t *testing.T, cfg Config) (*Server, *Client, string) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.StopSessions()
	})
	return srv, NewClient(ts.URL), ts.URL
}

// postJSON issues a raw POST and returns status, headers and decoded body.
func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", stringsReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// stringsReader avoids importing strings just for NewReader in this file.
func stringsReader(s string) io.Reader { return &stringReader{s: s} }

type stringReader struct{ s string }

func (r *stringReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.s)
	r.s = r.s[n:]
	return n, nil
}

// TestDecideShedsOverHTTP drives a normal-priority session past its shed
// threshold on a frozen clock and pins the HTTP overload contract: 429 Too
// Many Requests with a Retry-After hint, while the typed client surfaces an
// *APIError carrying the status.
func TestDecideShedsOverHTTP(t *testing.T) {
	clk := newManualClock(testEpoch)
	_, c, url := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now, Admission: testAdmission()})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-shed", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// The frozen clock never drains the backlog: every accepted decide adds
	// 100µs, and the 60th arrival crosses the normal-priority threshold
	// (0.60 × 10ms). Keep going until the gate refuses.
	var shedAt int
	var shedErr *APIError
	for i := 0; i < 200; i++ {
		_, err := c.Decide(ctx, "t-shed", i%2, (i/2)%2)
		if err != nil {
			if !errors.As(err, &shedErr) {
				t.Fatalf("decide %d: non-API error %v", i, err)
			}
			shedAt = i
			break
		}
	}
	if shedErr == nil {
		t.Fatal("200 frozen-clock decides never shed")
	}
	if shedErr.Status != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", shedErr.Status)
	}
	// 60 accepts fill the normal threshold; the 61st arrival sheds.
	if shedAt != 61 {
		t.Fatalf("shed at request %d, want 61", shedAt)
	}

	// Raw request: the 429 carries a Retry-After hint (whole seconds, ≥ 1).
	status, hdr, body := postJSON(t, url+"/v1/decide", `{"session":"t-shed","x":0,"y":0}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("raw shed status = %d, body %s", status, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}

	// Advancing the wall clock drains the modeled backlog and service
	// resumes — shedding is a state of the queue, not of the session.
	clk.Advance(20 * time.Millisecond)
	if _, err := c.Decide(ctx, "t-shed", 0, 0); err != nil {
		t.Fatalf("decide after drain window: %v", err)
	}
}

// TestDeadlinePropagationOverHTTP pins the wire deadline contract: a
// stamped request whose budget cannot cover the modeled queue+service time
// is rejected with 429 before touching the session, and an accepted
// request's response carries the modeled queue wait in queue_ns.
func TestDeadlinePropagationOverHTTP(t *testing.T) {
	clk := newManualClock(testEpoch)
	_, c, url := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now, Admission: testAdmission()})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-dl", Endpoints: twoEndpoints(), Seed: 2}); err != nil {
		t.Fatal(err)
	}
	now := clk.Now()

	// Budget 50µs < the 100µs modeled service time: shed even on an empty
	// queue — serving it would only produce a late answer.
	tight := now.Add(50 * time.Microsecond).UnixNano()
	status, _, body := postJSON(t, url+"/v1/decide",
		fmt.Sprintf(`{"session":"t-dl","x":0,"y":0,"deadline_unix_ns":%d}`, tight))
	if status != http.StatusTooManyRequests {
		t.Fatalf("tight deadline: status %d, body %s", status, body)
	}

	// A generous budget admits; the first accept sees an empty queue.
	loose := now.Add(time.Second).UnixNano()
	status, _, body = postJSON(t, url+"/v1/decide",
		fmt.Sprintf(`{"session":"t-dl","x":0,"y":1,"deadline_unix_ns":%d}`, loose))
	if status != http.StatusOK {
		t.Fatalf("loose deadline: status %d, body %s", status, body)
	}
	var first DecideResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.QueueNS != 0 {
		t.Fatalf("first accept queue_ns = %d, want 0", first.QueueNS)
	}

	// The second accept queues behind the first's modeled 100µs of service.
	status, _, body = postJSON(t, url+"/v1/decide",
		fmt.Sprintf(`{"session":"t-dl","x":1,"y":0,"deadline_unix_ns":%d}`, loose))
	if status != http.StatusOK {
		t.Fatalf("second decide: status %d, body %s", status, body)
	}
	var second DecideResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.QueueNS != int64(100*time.Microsecond) {
		t.Fatalf("second accept queue_ns = %d, want %d", second.QueueNS, int64(100*time.Microsecond))
	}

	// Batch requests share one deadline for the whole batch: 64 rounds cost
	// 6.4ms of modeled service, so a 1ms budget sheds the batch whole.
	rounds := `[` + repeatRounds(64) + `]`
	batchTight := clk.Now().Add(time.Millisecond).UnixNano()
	status, _, body = postJSON(t, url+"/v1/decide/batch",
		fmt.Sprintf(`{"session":"t-dl","rounds":%s,"deadline_unix_ns":%d}`, rounds, batchTight))
	if status != http.StatusTooManyRequests {
		t.Fatalf("batch tight deadline: status %d, body %s", status, body)
	}
	// Nothing played: all-or-nothing extends to admission.
	info, err := c.Session(ctx, "t-dl")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != 2 {
		t.Fatalf("session rounds = %d, want 2 (shed batch must not play)", info.Rounds)
	}
}

// repeatRounds renders n copies of {"x":0,"y":0} for batch bodies.
func repeatRounds(n int) string {
	s := `{"x":0,"y":0}`
	out := s
	for i := 1; i < n; i++ {
		out += "," + s
	}
	return out
}

// TestBrownoutVisibleThroughServing drives a high-priority session into
// sustained overload and pins the brownout rung end to end: decide
// responses degrade to the classical fallback, session info reports
// brownout, and draining the backlog releases the rung with hysteresis.
func TestBrownoutVisibleThroughServing(t *testing.T) {
	clk := newManualClock(testEpoch)
	cfg := testAdmission()
	cfg.BrownoutSustain = 3
	srv, c, _ := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now, Admission: cfg})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{
		ID: "t-brown", Endpoints: twoEndpoints(), Seed: 3, Priority: "high",
	}); err != nil {
		t.Fatal(err)
	}

	// High-priority traffic has no tier threshold, so the frozen-clock
	// backlog climbs past the brownout enter line (7.5ms = 75 accepts).
	// After BrownoutSustain arrivals beyond it, decisions flip to the
	// cheap classical rung. 85 arrivals cover engage (≈78) with margin
	// while staying under the 100-arrival hard cap.
	var last DecideResponse
	for i := 0; i < 85; i++ {
		d, err := c.Decide(ctx, "t-brown", i%2, (i/2)%2)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		last = d
	}
	if !srv.Admission().Brownout(0) {
		t.Fatal("sustained overload never engaged the controller's brownout gate")
	}
	// While browned out, decide responses ride the classical fallback.
	if last.Level != "classical" || last.Mode != "fallback" {
		t.Fatalf("browned-out decide = level %q mode %q, want classical fallback", last.Level, last.Mode)
	}
	info, err := c.Session(ctx, "t-brown")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Brownout {
		t.Fatal("session info does not report brownout")
	}
	if info.Level != "classical" {
		t.Fatalf("browned-out session level = %q, want classical", info.Level)
	}

	// Drain the backlog and make BrownoutSustain arrivals below the exit
	// line: the rung releases (response level may still read classical if
	// the visibility ladder says so; the brownout flag is the contract).
	clk.Advance(50 * time.Millisecond)
	for i := 0; i < cfg.BrownoutSustain+1; i++ {
		if _, err := c.Decide(ctx, "t-brown", 0, 0); err != nil {
			t.Fatalf("recovery decide %d: %v", i, err)
		}
	}
	if srv.Admission().Brownout(0) {
		t.Fatal("controller gate still in brownout after the backlog drained")
	}
	info, err = c.Session(ctx, "t-brown")
	if err != nil {
		t.Fatal(err)
	}
	if info.Brownout {
		t.Fatal("session info still reports brownout after release")
	}
}

// TestAdmissionDisableSheddingObserveOnly: the observe-only escape hatch
// admits everything (the pre-admission behavior), while still tracking the
// modeled backlog — the configuration the overload collapse test uses.
func TestAdmissionDisableSheddingObserveOnly(t *testing.T) {
	clk := newManualClock(testEpoch)
	cfg := testAdmission()
	cfg.DisableShedding = true
	srv, c, _ := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now, Admission: cfg})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-obs", Endpoints: twoEndpoints(), Seed: 4, Priority: "low"}); err != nil {
		t.Fatal(err)
	}
	// 200 frozen-clock decides would shed at 40 (low tier) with shedding
	// on; observe-only admits all of them.
	for i := 0; i < 200; i++ {
		if _, err := c.Decide(ctx, "t-obs", i%2, (i/2)%2); err != nil {
			t.Fatalf("observe-only decide %d: %v", i, err)
		}
	}
	if got := srv.Admission().Backlog(0, clk.Now()); got != 200*100*time.Microsecond {
		t.Fatalf("observe-only backlog = %v, want 20ms", got)
	}
}

// TestGateStateRenderedPerShard: each admission gate's backlog and service
// estimate is its own /metrics key, so two gates under different load show
// different numbers instead of whichever wrote last.
func TestGateStateRenderedPerShard(t *testing.T) {
	srv := NewServer(Config{Shards: 2, Clock: func() time.Time { return testEpoch }, Admission: testAdmission()})
	t.Cleanup(srv.StopSessions)
	// One session on each gate.
	ids := [2]string{}
	for i := 0; ids[0] == "" || ids[1] == ""; i++ {
		id := fmt.Sprintf("t-gate-%d", i)
		if g := fnv64a(id) & 1; ids[g] == "" {
			ids[g] = id
		}
	}
	for g, rounds := range []int{50, 1} { // 5ms and 100µs of modeled backlog
		if _, err := srv.CreateSession(SessionRequest{ID: ids[g], Endpoints: twoEndpoints(), Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if err := srv.DecideBatch(ids[g], make([]Round, rounds), make([]DecideResponse, rounds)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Admission().Observe(1, 200*time.Microsecond) // gate 1's estimate: 100µs → 110µs

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range []string{
		"admission_backlog_ns{shard=0} 5e+06",
		"admission_backlog_ns{shard=1} 100000",
		"admission_service_estimate_ns{shard=0} 100000",
		"admission_service_estimate_ns{shard=1} 110000",
		"admission_accepted_total 2",
	} {
		if !strings.Contains(rec.Body.String(), line+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", line, rec.Body)
		}
	}
}

// TestAdmissionAcceptPathAllocs extends the zero-allocation gate to the
// admission-enabled in-process accept path: limiter acquire, gate admit,
// observe and release must all stay off the heap. The modeled service
// quantum is shrunk to 1ns so thousands of frozen-clock accepts never
// reach a shed threshold.
func TestAdmissionAcceptPathAllocs(t *testing.T) {
	srv := NewServer(Config{
		Shards: 1,
		Clock:  func() time.Time { return testEpoch },
		Admission: &admission.Config{
			InitialService: time.Nanosecond,
			MaxBacklog:     10 * time.Millisecond,
		},
	})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-adm-allocs", Endpoints: twoEndpoints(), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var out DecideResponse
	for i := 0; i < 64; i++ {
		if err := srv.Decide("t-adm-allocs", i%2, (i/2)%2, &out); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		if err := srv.Decide("t-adm-allocs", i%2, (i/2)%2, &out); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("admission-enabled decide allocates %v per op; the accept path must be allocation-free", avg)
	}

	// The shed path must not allocate either (the limiter rejection is a
	// preallocated sentinel; gate rejections build one small Decision on
	// the stack and wrap it in a ShedError — allow that single object).
	deadline := testEpoch // already past: every request sheds on deadline
	rounds, results := []Round{{X: 0, Y: 0}}, make([]DecideResponse, 1)
	avg = testing.AllocsPerRun(500, func() {
		if err := srv.DecideBatchDeadline("t-adm-allocs", deadline, rounds, results); err == nil {
			t.Fatal("past-deadline decide must shed")
		}
	})
	if avg > 1 {
		t.Fatalf("shed path allocates %v per op, want <= 1", avg)
	}
}

// TestSessionInfoRaceFree is the satellite-2 audit as a test: the
// brownout/priority fields added to SessionInfo must not break the
// zero-copy immutable-endpoints read path under concurrent Decide /
// DecideBatch / Info traffic with admission flipping brownout on and off.
// /metrics reads the gate and limiter state alongside. Run under -race
// this pins the absence of data races; the content checks pin that the
// shared endpoints slice is never mutated.
func TestSessionInfoRaceFree(t *testing.T) {
	clk := newManualClock(testEpoch)
	cfg := testAdmission()
	cfg.BrownoutSustain = 2
	srv, c, _ := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now, Admission: cfg})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{
		ID: "t-race", Endpoints: twoEndpoints(), Seed: 6, Priority: "high",
	}); err != nil {
		t.Fatal(err)
	}
	want := twoEndpoints()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})

	// Clock driver: alternate stalls (backlog growth → brownout) and
	// drains (release), so SetBrownout flips while readers poll.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			clk.Advance(time.Millisecond)
			time.Sleep(50 * time.Microsecond)
		}
		close(stop)
	}()

	decideOK := func(err error) bool {
		if err == nil {
			return true
		}
		var shed *ShedError
		return errors.As(err, &shed)
	}

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var out DecideResponse
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := srv.Decide("t-race", (i+seed)%2, i%2, &out); !decideOK(err) {
					errs <- fmt.Errorf("decide: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rounds := []Round{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
		out := make([]DecideResponse, len(rounds))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.DecideBatch("t-race", rounds, out); !decideOK(err) {
				errs <- fmt.Errorf("batch: %w", err)
				return
			}
		}
	}()
	// In-process and HTTP info readers: both consume the shared endpoints
	// slice (the HTTP path JSON-encodes it concurrently with decides).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			info, err := srv.Info("t-race")
			if err != nil {
				errs <- fmt.Errorf("info: %w", err)
				return
			}
			if !reflect.DeepEqual(info.Endpoints, want) {
				errs <- fmt.Errorf("endpoints corrupted: %v", info.Endpoints)
				return
			}
			if info.Priority != "high" {
				errs <- fmt.Errorf("priority = %q", info.Priority)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			info, err := c.Session(ctx, "t-race")
			if err != nil {
				errs <- fmt.Errorf("http info: %w", err)
				return
			}
			if !reflect.DeepEqual(info.Endpoints, want) {
				errs <- fmt.Errorf("http endpoints corrupted: %v", info.Endpoints)
				return
			}
			if _, err := c.Metrics(ctx); err != nil {
				errs <- fmt.Errorf("metrics: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAdmissionNilIsPreAdmissionBehavior: a server without an admission
// config must ignore wire deadlines entirely — stamped requests are served
// however late, the pre-PR contract.
func TestAdmissionNilIsPreAdmissionBehavior(t *testing.T) {
	clk := newManualClock(testEpoch)
	_, _, url := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now})
	srv2 := NewServer(Config{Clock: clk.Now})
	t.Cleanup(srv2.StopSessions)
	if _, err := srv2.CreateSession(SessionRequest{ID: "t-nil", Endpoints: twoEndpoints(), Seed: 7}); err != nil {
		t.Fatal(err)
	}
	// In-process: an already-lapsed deadline still serves.
	var out [1]DecideResponse
	if err := srv2.DecideBatchDeadline("t-nil", testEpoch.Add(-time.Hour), []Round{{X: 0, Y: 0}}, out[:]); err != nil {
		t.Fatalf("nil-admission decide with lapsed deadline: %v", err)
	}
	if out[0].QueueNS != 0 {
		t.Fatalf("nil-admission queue_ns = %d, want 0", out[0].QueueNS)
	}
	// HTTP: same contract through the handler.
	hc := &http.Client{}
	req := fmt.Sprintf(`{"session":"t-http-nil","x":0,"y":0,"deadline_unix_ns":%d}`,
		testEpoch.Add(-time.Hour).UnixNano())
	resp, err := hc.Post(url+"/v1/sessions", "application/json",
		stringsReader(`{"id":"t-http-nil","endpoints":["lb-a","lb-b"],"seed":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	status, _, body := postJSON(t, url+"/v1/decide", req)
	if status != http.StatusOK {
		t.Fatalf("nil-admission HTTP decide: status %d, body %s", status, body)
	}
}

// TestSlowClientsDoNotHoldLimiterSlots pins the admission-pipeline
// ordering contract (DESIGN.md: limiter → deadline gate → session lock,
// with the limiter AFTER the body read): a slow-loris client that sends
// headers plus a partial body and then stalls occupies only its
// connection goroutine, never a concurrency slot. With a hard limit of 2
// and a queue of 2, six stalled uploads would otherwise wedge every
// healthy decide behind the limiter — instead, all of them sail through.
func TestSlowClientsDoNotHoldLimiterSlots(t *testing.T) {
	clk := newManualClock(testEpoch)
	cfg := testAdmission()
	cfg.Limiter = admission.LimiterConfig{Initial: 2, Min: 2, Max: 2, QueueDepth: 2}
	_, c, url := newAdmissionServer(t, Config{Shards: 1, Clock: clk.Now, Admission: cfg})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, SessionRequest{ID: "t-slow", Endpoints: twoEndpoints(), Seed: 9}); err != nil {
		t.Fatal(err)
	}

	// Six slow-loris uploads: full headers, a Content-Length promising more
	// body than is sent, then silence. Each holds an open connection (and a
	// server read goroutine) for the rest of the test.
	addr := strings.TrimPrefix(url, "http://")
	conns := make([]net.Conn, 0, 6)
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	for i := 0; i < 6; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		partial := fmt.Sprintf("POST /v1/decide HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 500\r\n\r\n{\"session\":\"t-slow\"", addr)
		if _, err := io.WriteString(conn, partial); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy decides keep succeeding: if the stalled uploads held limiter
	// slots, the 5th onward would queue behind a limit of 2+2 and shed.
	for i := 0; i < 20; i++ {
		if _, err := c.Decide(ctx, "t-slow", i%2, (i/2)%2); err != nil {
			t.Fatalf("decide %d behind slow clients: %v", i, err)
		}
	}
}
