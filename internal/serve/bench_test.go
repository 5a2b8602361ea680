package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The serving-path benchmarks quantify the three rungs of the decide fast
// path the load-test harness measures end to end:
//
//	BenchmarkDecideInProcess   — session lock + strategy draw only (the
//	                             zero-allocation floor; run with -benchmem
//	                             to watch the 0 allocs/op gate)
//	BenchmarkDecideInProcessParallel — the same, one session per goroutine
//	BenchmarkDecideDisjointSessions — two goroutines on disjoint sessions
//	                             of one server, against one goroutine
//	BenchmarkDecideHTTP        — one round per HTTP exchange (the pre-batch
//	                             serving path)
//	BenchmarkDecideBatchHTTP64 — 64 rounds per HTTP exchange; decisions/sec
//	                             should beat the single-round path ≥5×
//
// BenchmarkDecodeSingle and BenchmarkDecodeBatch64 isolate the request
// decode underneath the handler numbers: the fast path against json.Unmarshal
// on the same bytes. BenchmarkEncodeBatch64 isolates the response encode,
// BenchmarkSessionInfoHandler times the health-poll route through
// ServeHTTP, and BenchmarkCreateSession times registration as the store
// fills.
//
// Each reports decisions/sec via b.ReportMetric so benchstat can trend the
// throughput claim directly. Baselines live in
// .github/bench-serve-baseline.txt (informational trend check in CI).

// BenchmarkCreateSession registers b.N sessions on one server, so ns/op is
// the mean create cost while the store fills to b.N: a create whose cost
// grows with the store shows as ns/op growing with -benchtime (compare
// 1000x with 100000x; each session holds ~2.5 KB).
func BenchmarkCreateSession(b *testing.B) {
	srv := NewServer(Config{})
	b.Cleanup(srv.StopSessions)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := srv.CreateSession(SessionRequest{ID: fmt.Sprintf("bench-%d", i), Endpoints: []string{"lb-a", "lb-b"}, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServer builds a server with a real clock and one warm session.
func benchServer(b testing.TB) *Server {
	b.Helper()
	srv := NewServer(Config{})
	b.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "bench", Endpoints: []string{"lb-a", "lb-b"}, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	var out DecideResponse
	for i := 0; i < 256; i++ {
		if err := srv.Decide("bench", i%2, (i/2)%2, &out); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

func BenchmarkDecideInProcess(b *testing.B) {
	srv := benchServer(b)
	var out DecideResponse
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Decide("bench", i%2, (i/2)%2, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkDecideInProcessParallel is BenchmarkDecideInProcess with one
// session per goroutine: the sessions share nothing but the server, so
// ns/op across -cpu settings shows what a decide still contends on.
func BenchmarkDecideInProcessParallel(b *testing.B) {
	srv := NewServer(Config{})
	b.Cleanup(srv.StopSessions)
	// RunParallel starts GOMAXPROCS goroutines; each takes the next ID.
	ids := make([]string, runtime.GOMAXPROCS(0))
	for g := range ids {
		ids[g] = fmt.Sprintf("bench-%d", g)
		if _, err := srv.CreateSession(SessionRequest{ID: ids[g], Endpoints: []string{"lb-a", "lb-b"}, Seed: 42}); err != nil {
			b.Fatal(err)
		}
		var out DecideResponse
		for i := 0; i < 256; i++ {
			if err := srv.Decide(ids[g], i%2, (i/2)%2, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids[next.Add(1)-1]
		var out DecideResponse
		for i := 0; pb.Next(); i++ {
			if err := srv.Decide(id, i%2, (i/2)%2, &out); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkDecideDisjointSessions times one server's decides from two
// goroutines on disjoint halves of 8 sessions: ns/op is the pair's time per
// decision, and "scale" is how many times faster the pair runs than one
// goroutine cycling through all 8 — 2 when decides on different sessions
// share nothing, 1 when they serialize. The two are timed in alternating
// rounds and each keeps its fastest round, so a noisy neighbour on a shared
// host slows a round, not the ratio. The clock is frozen, so every round
// rides the classical rung and what is timed is the pipeline, not the
// supply chain. Run it with -cpu 2 or more; at -cpu 1 scale is about 1 by
// construction.
func BenchmarkDecideDisjointSessions(b *testing.B) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	b.Cleanup(srv.StopSessions)
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d", i)
		if _, err := srv.CreateSession(SessionRequest{ID: ids[i], Endpoints: []string{"lb-a", "lb-b"}, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	decide := func(ids []string, n int) error {
		var out DecideResponse
		for i := 0; i < n; i++ {
			if err := srv.Decide(ids[i%len(ids)], i%2, (i/2)%2, &out); err != nil {
				return err
			}
		}
		return nil
	}
	const rounds = 8
	n := max(b.N/rounds, 2)
	single, pair := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ReportAllocs()
	b.ResetTimer()
	for range rounds {
		b.StopTimer()
		start := time.Now()
		if err := decide(ids, n); err != nil {
			b.Fatal(err)
		}
		single = min(single, time.Since(start))
		b.StartTimer()
		start = time.Now()
		var errA, errB error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); errA = decide(ids[:4], n/2) }()
		go func() { defer wg.Done(); errB = decide(ids[4:], n-n/2) }()
		wg.Wait()
		pair = min(pair, time.Since(start))
		if err := errors.Join(errA, errB); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds*n), "ns/op")
	b.ReportMetric(single.Seconds()/pair.Seconds(), "scale")
}

func BenchmarkDecideInProcessBatch64(b *testing.B) {
	srv := benchServer(b)
	rounds := make([]Round, 64)
	for i := range rounds {
		rounds[i] = Round{X: i % 2, Y: (i / 2) % 2}
	}
	out := make([]DecideResponse, len(rounds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.DecideBatch("bench", rounds, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(rounds))/b.Elapsed().Seconds(), "decisions/s")
}

// benchHTTP mounts the server on a loopback listener with a pooled client.
func benchHTTP(b testing.TB) (*httptest.Server, *Client) {
	b.Helper()
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	b.Cleanup(func() {
		ts.Close()
		srv.StopSessions()
	})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(context.Background(), SessionRequest{ID: "bench", Endpoints: []string{"lb-a", "lb-b"}, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	return ts, c
}

func BenchmarkDecideHTTP(b *testing.B) {
	_, c := benchHTTP(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decide(ctx, "bench", i%2, (i/2)%2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

func BenchmarkDecideBatchHTTP64(b *testing.B) {
	_, c := benchHTTP(b)
	ctx := context.Background()
	rounds := make([]Round, 64)
	for i := range rounds {
		rounds[i] = Round{X: i % 2, Y: (i / 2) % 2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecideBatch(ctx, "bench", rounds); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(rounds))/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkDecideHandler measures the HTTP handler alone (request decode →
// decide → response encode) without socket or client overhead, isolating
// the pooled-scratch + append-encoder work.
func BenchmarkDecideHandler(b *testing.B) {
	srv := benchServer(b)
	body, err := json.Marshal(DecideRequest{Session: "bench", X: 1, Y: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// TestBatchThroughputMultiplier is the acceptance check for the batch
// endpoint: at batch=64 the decisions/sec over HTTP must be at least 5× the
// single-round HTTP path. It times both paths briefly; generous margins and
// a retry keep it stable on noisy CI hosts.
func TestBatchThroughputMultiplier(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	_, c := benchHTTP(t)
	ctx := context.Background()

	rounds := make([]Round, 64)
	for i := range rounds {
		rounds[i] = Round{X: i % 2, Y: (i / 2) % 2}
	}

	measure := func() (single, batch float64) {
		const singleN = 400
		start := time.Now()
		for i := 0; i < singleN; i++ {
			if _, err := c.Decide(ctx, "bench", i%2, 0); err != nil {
				t.Fatal(err)
			}
		}
		single = float64(singleN) / time.Since(start).Seconds()

		const batchN = 100
		start = time.Now()
		for i := 0; i < batchN; i++ {
			if _, err := c.DecideBatch(ctx, "bench", rounds); err != nil {
				t.Fatal(err)
			}
		}
		batch = float64(batchN*len(rounds)) / time.Since(start).Seconds()
		return single, batch
	}

	var single, batch float64
	for attempt := 0; attempt < 3; attempt++ {
		single, batch = measure()
		if batch >= 5*single {
			return
		}
	}
	t.Fatalf("batch=64 throughput %.0f decisions/s is under 5x single-round %.0f decisions/s", batch, single)
}

// benchDecode times the two decoders on one body. The bodies are byte for
// byte what benchmark/benchlib's (*Op).Body renders for handler_mix.
func benchDecode[T any](b *testing.B, body []byte, fast func([]byte, *T) ([]byte, bool)) {
	b.Run("fast", func(b *testing.B) {
		var req T
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, ok := fast(body, &req); !ok {
				b.Fatal("fast path declined its own canonical body")
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		var req T
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeSingle(b *testing.B) {
	benchDecode(b, []byte(`{"session":"hm-003","x":1,"y":0}`), fastDecodeSingle)
}

func BenchmarkDecodeBatch64(b *testing.B) {
	benchDecode(b, canonicalBatch("hm-003", 64), fastDecodeBatch)
}

// BenchmarkEncodeBatch64 times the append encoder on the 64 results a live
// session answers a batch with, against json.Marshal of the same response.
// The batch is served a millisecond into the session, once its pool holds
// pairs, so a few of its rounds are quantum, each with its own visibility,
// and the rest fallback (handler_mix's batches average 7.7 % quantum); on a
// clock that has not moved every round falls back.
func BenchmarkEncodeBatch64(b *testing.B) {
	now := testEpoch
	srv := NewServer(Config{Clock: func() time.Time { return now }})
	b.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "hm-003", Endpoints: twoEndpoints(), Seed: 42}); err != nil {
		b.Fatal(err)
	}
	var req DecideBatchRequest
	if err := json.Unmarshal(canonicalBatch("hm-003", 64), &req); err != nil {
		b.Fatal(err)
	}
	results := make([]DecideResponse, len(req.Rounds))
	now = now.Add(time.Millisecond)
	if err := srv.DecideBatch(req.Session, req.Rounds, results); err != nil {
		b.Fatal(err)
	}
	quantum := 0
	for i := range results {
		if results[i].Mode == "quantum" {
			quantum++
		}
	}
	if quantum == 0 || quantum == len(results) {
		b.Fatalf("%d of %d rounds quantum: the batch should mix quantum and fallback rounds", quantum, len(results))
	}
	out := appendBatchJSON(nil, req.Session, results)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(out)))
		for i := 0; i < b.N; i++ {
			out = appendBatchJSON(out[:0], req.Session, results)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(out)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(DecideBatchResponse{Session: req.Session, Results: results}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionInfoHandler times GET /v1/sessions/{id} through
// ServeHTTP on a frozen clock: routing, the session's info under its lock,
// and the append encoder.
func BenchmarkSessionInfoHandler(b *testing.B) {
	srv := NewServer(Config{Clock: func() time.Time { return testEpoch }})
	b.Cleanup(srv.StopSessions)
	if _, err := srv.CreateSession(SessionRequest{ID: "hm-003", Endpoints: twoEndpoints(), Seed: 42}); err != nil {
		b.Fatal(err)
	}
	rig := newHandlerRig(b, srv, http.MethodGet, "/v1/sessions/hm-003")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if status := rig.serve(nil); status != http.StatusOK {
			b.Fatalf("status %d: %s", status, rig.w.body)
		}
	}
}
