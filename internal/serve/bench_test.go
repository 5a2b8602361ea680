package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The serving-path benchmarks quantify the three rungs of the decide fast
// path the load-test harness measures end to end:
//
//	BenchmarkDecideInProcess   — session lock + strategy draw only (the
//	                             zero-allocation floor; run with -benchmem
//	                             to watch the 0 allocs/op gate)
//	BenchmarkDecideHTTP        — one round per HTTP exchange (the pre-batch
//	                             serving path)
//	BenchmarkDecideBatchHTTP64 — 64 rounds per HTTP exchange; decisions/sec
//	                             should beat the single-round path ≥5×
//
// BenchmarkDecodeSingle and BenchmarkDecodeBatch64 isolate the request
// decode underneath the handler numbers: the fast path against json.Unmarshal
// on the same bytes.
//
// Each reports decisions/sec via b.ReportMetric so benchstat can trend the
// throughput claim directly. Baselines live in
// .github/bench-serve-baseline.txt (informational trend check in CI).

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
