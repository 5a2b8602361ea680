package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// canonicalBatch renders the batch body a real client sends: n rounds over
// the four input pairs, no whitespace.
func canonicalBatch(session string, n int) []byte {
	rounds := make([]Round, n)
	for i := range rounds {
		rounds[i] = Round{X: i % 2, Y: (i / 2) % 2}
	}
	b, err := json.Marshal(DecideBatchRequest{Session: session, Rounds: rounds})
	if err != nil {
		panic(err)
	}
	return b
}

// staleRounds is what a recycled scratch's Rounds array looks like after
// somebody else's request: inputs no game accepts.
func staleRounds(n int) []Round {
	rounds := make([]Round, n)
	for i := range rounds {
		rounds[i] = Round{X: 7, Y: 9}
	}
	return rounds
}

// FuzzFastDecode is the differential test of the request decoders against
// encoding/json. The decode methods get a scratch still holding another
// request; whatever the body, they must then agree with json.Unmarshal into
// a fresh zero target — the same error text, or the same struct. That one
// property covers both halves of the design: a body the fast path accepts
// is one the standard library accepts and reads the same way, and a body it
// declines reaches the standard library with nothing left over in the
// target.
//
// Named seeds live in testdata/fuzz/FuzzFastDecode; the families that are a
// loop are added here.
func FuzzFastDecode(f *testing.F) {
	batch := canonicalBatch("f", 3)
	for i := range batch {
		f.Add(batch[:i]) // truncated at every byte
	}
	for i := 0; i <= len(batch); i++ {
		// One whitespace byte at every position, inside tokens included.
		f.Add(append(append(append([]byte(nil), batch[:i]...), " \t\n\r"[i%4]), batch[i:]...))
	}

	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	f.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "f", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
		f.Fatal(err)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := &decideScratch{
			req:  DecideRequest{Session: "stale", X: 7, Y: 9, DeadlineUnixNS: -1},
			breq: DecideBatchRequest{Session: "stale", Rounds: staleRounds(8)[:3], DeadlineUnixNS: -1},
		}
		request := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		}

		var single DecideRequest
		want := json.Unmarshal(body, &single)
		got := srv.decodeSingle(sc, request())
		if errText(got) != errText(want) {
			t.Fatalf("single: decode error %q, encoding/json %q", errText(got), errText(want))
		}
		if want == nil && sc.req != single {
			t.Fatalf("single: decoded %+v, encoding/json %+v", sc.req, single)
		}
		if _, ok := fastDecodeSingle(body, new(DecideRequest)); ok && want != nil {
			t.Fatalf("single: fast path accepts what encoding/json refuses: %v", want)
		}

		var batch DecideBatchRequest
		want = json.Unmarshal(body, &batch)
		got = srv.decodeBatch(sc, request())
		if errText(got) != errText(want) {
			t.Fatalf("batch: decode error %q, encoding/json %q", errText(got), errText(want))
		}
		// A missing "rounds" leaves nil in a fresh target and the recycled
		// empty slice in the scratch; no caller can tell them apart.
		if len(batch.Rounds) == 0 && len(sc.breq.Rounds) == 0 {
			batch.Rounds, sc.breq.Rounds = nil, nil
		}
		if want == nil && !reflect.DeepEqual(sc.breq, batch) {
			t.Fatalf("batch: decoded %+v, encoding/json %+v", sc.breq, batch)
		}
		if _, ok := fastDecodeBatch(body, new(DecideBatchRequest)); ok && want != nil {
			t.Fatalf("batch: fast path accepts what encoding/json refuses: %v", want)
		}
	})
}

// TestFastDecodeTakesTheHotShapes: the differential fuzz would pass with a
// decoder that declined everything, so pin the other direction — the bodies
// the clients and the benchmark send go through the fast path, and the
// near-misses in the seed corpus do not.
func TestFastDecodeTakesTheHotShapes(t *testing.T) {
	single, err := json.Marshal(DecideRequest{Session: "s-000001", X: 1, Y: 0, DeadlineUnixNS: 1700000000123456789})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		body          string
		single, batch bool
	}{
		{"client single", string(single), true, false},
		{"client batch-64", string(canonicalBatch("s-000001", 64)), false, true},
		{"empty object", `{}`, true, true},
		{"whitespace", " {\n\t\"session\" : \"f\" ,\r\n \"deadline_unix_ns\" : -12 } ", true, true},
		{"empty rounds", `{"rounds":[ ]}`, false, true},
		{"empty round", `{"rounds":[{ }]}`, false, true},
		{"18 digits", `{"deadline_unix_ns":999999999999999999}`, true, true},
		{"19 digits", `{"deadline_unix_ns":1000000000000000000}`, true, true},
		{"max int64", `{"deadline_unix_ns":9223372036854775807}`, true, true},
		{"min int64", `{"deadline_unix_ns":-9223372036854775808}`, true, true},
		{"minus zero", `{"deadline_unix_ns":-0}`, true, true},
		{"max int64 + 1", `{"deadline_unix_ns":9223372036854775808}`, false, false},
		{"min int64 - 1", `{"deadline_unix_ns":-9223372036854775809}`, false, false},
		{"20 digits", `{"deadline_unix_ns":10000000000000000000}`, false, false},
		{"folded key", `{"Session":"f"}`, false, false},
		{"escaped value", `{"session":"\u0066"}`, false, false},
		{"non-ASCII value", `{"session":"é"}`, false, false},
		{"duplicate key", `{"session":"f","session":"f"}`, false, false},
		{"duplicate round key", `{"rounds":[{"x":0,"x":0}]}`, false, false},
		{"null", `{"session":null}`, false, false},
		{"fraction", `{"deadline_unix_ns":1.0}`, false, false},
		{"exponent", `{"deadline_unix_ns":1e2}`, false, false},
		{"leading zero", `{"deadline_unix_ns":01}`, false, false},
		{"unknown key", `{"session":"f","extra":{"x":1}}`, false, false},
		{"trailing comma", `{"session":"f",}`, false, false},
		{"trailing garbage", `{"session":"f"}x`, false, false},
		{"not an object", `[]`, false, false},
		{"empty", ``, false, false},
	} {
		if _, ok := fastDecodeSingle([]byte(tc.body), new(DecideRequest)); ok != tc.single {
			t.Errorf("%s: single fast path accepted=%v, want %v", tc.name, ok, tc.single)
		}
		if _, ok := fastDecodeBatch([]byte(tc.body), new(DecideBatchRequest)); ok != tc.batch {
			t.Errorf("%s: batch fast path accepted=%v, want %v", tc.name, ok, tc.batch)
		}
	}
}

// TestCompactRoundsMatchTheKeyLoop: each of the 100 compact rounds, alone
// and inside a batch, reads through the compact match as the key loop reads
// it, and as encoding/json does.
func TestCompactRoundsMatchTheKeyLoop(t *testing.T) {
	for x := 0; x <= 9; x++ {
		for y := 0; y <= 9; y++ {
			body := []byte(fmt.Sprintf(`{"x":%d,"y":%d}`, x, y))
			if _, ok := matchCompact(body); !ok {
				t.Fatalf("%s: not matched as compact", body)
			}
			fast, general := cursor{b: body}, cursor{b: body}
			r, ok := fast.round()
			want, wantOK := general.roundKeys()
			if !ok || !wantOK || r != want || fast.i != general.i || r != (Round{X: x, Y: y}) {
				t.Fatalf("%s: round %+v (ok=%v, at %d), key loop %+v (ok=%v, at %d)", body, r, ok, fast.i, want, wantOK, general.i)
			}
			batch := []byte(`{"session":"f","rounds":[` + string(body) + `,` + string(body) + `]}`)
			var req, std DecideBatchRequest
			if _, ok := fastDecodeBatch(batch, &req); !ok {
				t.Fatalf("%s: batch declined", batch)
			}
			if err := json.Unmarshal(batch, &std); err != nil || !reflect.DeepEqual(req.Rounds, std.Rounds) {
				t.Fatalf("%s: rounds %+v, encoding/json %+v (%v)", batch, req.Rounds, std.Rounds, err)
			}
		}
	}
}

// TestCompactRoundMutations: a round that differs from {"x":1,"y":0} in
// one byte is either still a compact round, read as one, or is not matched
// and goes to the key loop, which reads it from the same offset or
// declines. Every byte at every position is tried, and the named shapes
// (also FuzzFastDecode seeds) are pinned to their path.
func TestCompactRoundMutations(t *testing.T) {
	const base = `{"x":1,"y":0}`
	check := func(body []byte) {
		t.Helper()
		fast, general := cursor{b: body}, cursor{b: body}
		r, ok := fast.round()
		want, wantOK := general.roundKeys()
		if ok != wantOK || ok && (r != want || fast.i != general.i) {
			t.Fatalf("%q: round %+v (ok=%v, at %d), key loop %+v (ok=%v, at %d)", body, r, ok, fast.i, want, wantOK, general.i)
		}
		batch := append(append([]byte(`{"session":"f","rounds":[`), body...), "]}"...)
		var req, std DecideBatchRequest
		if _, ok := fastDecodeBatch(batch, &req); ok {
			if err := json.Unmarshal(batch, &std); err != nil || !reflect.DeepEqual(req.Rounds, std.Rounds) {
				t.Fatalf("%q: fast path read %+v, encoding/json %+v (%v)", batch, req.Rounds, std.Rounds, err)
			}
		}
	}
	for i := 0; i < len(base); i++ {
		for c := 0; c < 256; c++ {
			body := []byte(base)
			body[i] = byte(c)
			_, compact := matchCompact(body)
			digit := (i == 5 || i == 11) && c >= '0' && c <= '9'
			if compact != (digit || body[i] == base[i]) {
				t.Fatalf("%q: compact match = %v", body, compact)
			}
			check(body)
		}
	}
	for _, tc := range []struct {
		name, round string
		general     bool // the key loop accepts it
	}{
		{"leading zero", `{"x":01,"y":0}`, false},
		{"minus", `{"x":-1,"y":0}`, true},
		{"whitespace", `{"x": 1,"y":0}`, true},
		{"folded key", `{"X":1,"y":0}`, false},
		{"duplicate key", `{"x":1,"x":0}`, false},
		{"missing brace", `{"x":1,"y":0`, false},
		{"keys swapped", `{"y":0,"x":1}`, true},
		{"two digits", `{"x":10,"y":0}`, true},
	} {
		body := []byte(tc.round)
		if _, ok := matchCompact(body); ok {
			t.Errorf("%s: %s matched as compact", tc.name, body)
		}
		if _, ok := (&cursor{b: body}).roundKeys(); ok != tc.general {
			t.Errorf("%s: key loop accepted=%v, want %v", tc.name, ok, tc.general)
		}
		check(body)
	}
}

// TestBatchRoundsDoNotBleedAcrossRequests: the pooled scratch recycles the
// Rounds array, and a round that omits a key must read as zero, not as
// whatever the scratch's previous request put there. Both decoders are on
// both sides: the poisoning request and the probing one each go once
// through the fast path and once through encoding/json.
func TestBatchRoundsDoNotBleedAcrossRequests(t *testing.T) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-bleed", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const batch = "/v1/decide/batch"
	poisons := map[string]string{
		"fast":   `{"session":"t-bleed","rounds":[{"x":7,"y":9},{"x":7,"y":9}],"deadline_unix_ns":1}`,
		"stdlib": `{"Session":"t-bleed","rounds":[{"x":7,"y":9},{"x":7,"y":9}],"deadline_unix_ns":1}`,
	}
	probes := map[string]string{
		"fast":   `{"rounds":[{},{"y":1}],"session":"t-bleed"}`,
		"stdlib": `{"rounds":[{},{"y":1}],"session":"t-bleed","unknown":null}`,
	}
	for pname, poison := range poisons {
		for qname, probe := range probes {
			// sync.Pool hands the scratch straight back to the same
			// goroutine except under the race detector, which drops a
			// quarter of the Puts: repeat so one miss cannot hide the bug.
			for i := 0; i < 16; i++ {
				if rec := post(srv, batch, poison); rec.Code != http.StatusBadRequest {
					t.Fatalf("poison via %s: status %d, want 400: %s", pname, rec.Code, rec.Body)
				}
				rec := post(srv, batch, probe)
				if rec.Code != http.StatusOK {
					t.Fatalf("poison via %s, probe via %s: status %d: %s", pname, qname, rec.Code, rec.Body)
				}
				var resp DecideBatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 2 {
					t.Fatalf("probe via %s: %v: %s", qname, err, rec.Body)
				}
			}
		}
	}
}

// TestReadBodyLimitBeatsEOF: a reader may deliver its last bytes together
// with io.EOF (net/http's body reader does), and those bytes count against
// the limit like any others.
func TestReadBodyLimitBeatsEOF(t *testing.T) {
	const limit = 10
	for _, tc := range []struct {
		size int
		err  error
	}{
		{limit, nil},
		{limit + 1, errBodyTooLarge},
		{10 * limit, errBodyTooLarge},
	} {
		data := strings.Repeat("x", tc.size)
		// A buffer with room for everything, so the whole body and the EOF
		// arrive in the first Read.
		buf, err := readBody(iotest.DataErrReader(strings.NewReader(data)), make([]byte, 0, 2*tc.size), limit)
		if !errors.Is(err, tc.err) {
			t.Errorf("%d bytes against a limit of %d: err = %v, want %v", tc.size, limit, err, tc.err)
		}
		if tc.err == nil && string(buf) != data {
			t.Errorf("%d bytes: read back %q", tc.size, buf)
		}
	}
}

// handlerRig drives ServeHTTP the way the benchmark's handler_mix does: one
// reused *http.Request, one reused body reader, one in-memory writer, so
// what AllocsPerRun counts is the handler's own.
type handlerRig struct {
	srv  *Server
	req  *http.Request
	body bytes.Reader
	w    rigWriter
}

type rigWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *rigWriter) Header() http.Header         { return w.header }
func (w *rigWriter) WriteHeader(status int)      { w.status = status }
func (w *rigWriter) Write(p []byte) (int, error) { w.body = append(w.body, p...); return len(p), nil }

func newHandlerRig(t testing.TB, srv *Server, method, path string) *handlerRig {
	t.Helper()
	rig := &handlerRig{srv: srv, w: rigWriter{header: make(http.Header)}}
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = io.NopCloser(&rig.body)
	rig.req = req
	return rig
}

// serve passes one body through the handler and returns the status.
func (rig *handlerRig) serve(body []byte) int {
	rig.body.Reset(body)
	rig.req.ContentLength = int64(len(body))
	rig.w.status, rig.w.body = http.StatusOK, rig.w.body[:0]
	rig.srv.ServeHTTP(&rig.w, rig.req)
	return rig.w.status
}

// leastAllocs is the fewest allocations any of many single runs of f makes,
// not their mean: under the race detector sync.Pool drops a quarter of the
// Puts, and a request that has to build a new scratch is not what the
// handler gates pin.
func leastAllocs(f func()) float64 {
	got := math.Inf(1)
	for i := 0; i < 200; i++ {
		got = min(got, testing.AllocsPerRun(1, f))
	}
	return got
}

// TestDecideHandlerAllocs pins what one request through ServeHTTP
// allocates on a frozen clock. With encoding/json decoding every body the
// counts were 8 (single) and 11 (batch of 64); the fast path takes the
// decoder's share away — the decode state, the session string, the
// reflection scratch — and the shared Content-Type slice the header's. What
// is left is the Content-Length header: its one-element slice and its
// string.
func TestDecideHandlerAllocs(t *testing.T) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-hallocs", Endpoints: twoEndpoints(), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	single, err := json.Marshal(DecideRequest{Session: "t-hallocs", X: 1, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		path string
		body []byte
		want float64
	}{
		{"single", "/v1/decide", single, 2},
		{"batch-64", "/v1/decide/batch", canonicalBatch("t-hallocs", 64), 2},
	} {
		rig := newHandlerRig(t, srv, http.MethodPost, tc.path)
		serve := func() {
			if status := rig.serve(tc.body); status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, status, rig.w.body)
			}
		}
		for i := 0; i < 64; i++ {
			serve() // grow the pooled buffers to their steady size
		}
		if got := leastAllocs(serve); got > tc.want {
			t.Errorf("%s handler allocates %v per request, want at most %v", tc.name, got, tc.want)
		}
	}
}

// TestSessionInfoHandlerAllocs pins GET /v1/sessions/{id} the same way.
// The append encoder renders the body into the pooled scratch and the
// Content-Type slice is shared, so what is left is the router's: the
// wildcard match that r.PathValue reads.
func TestSessionInfoHandlerAllocs(t *testing.T) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	t.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "t-iallocs", Endpoints: twoEndpoints(), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	rig := newHandlerRig(t, srv, http.MethodGet, "/v1/sessions/t-iallocs")
	serve := func() {
		if status := rig.serve(nil); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, rig.w.body)
		}
	}
	for i := 0; i < 64; i++ {
		serve()
	}
	if got, want := leastAllocs(serve), float64(1); got > want {
		t.Errorf("info handler allocates %v per request, want at most %v", got, want)
	}
}
