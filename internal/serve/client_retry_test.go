package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestTransportRetryIdempotentGET: a connection the server kills
// mid-exchange (hijack + close, the killed-server scenario) must be retried
// transparently for idempotent GETs — and must NOT be retried for POSTs,
// which may have executed before the connection died.
func TestTransportRetryIdempotentGET(t *testing.T) {
	var getCalls, postCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if getCalls.Add(1) == 1 {
			// Kill the connection before writing any response: the client
			// observes EOF/reset with no way to know if we processed it.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		writeJSON(w, http.StatusOK, SessionInfo{ID: r.PathValue("id")})
	})
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		postCalls.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(ts.URL + "/") // a trailing slash is trimmed
	ctx := context.Background()

	// The GET rides the retry: first attempt dies, second succeeds.
	info, err := c.Session(ctx, "t-killed")
	if err != nil {
		t.Fatalf("GET after killed connection: %v", err)
	}
	if info.ID != "t-killed" {
		t.Fatalf("retried GET decoded %+v", info)
	}
	if n := getCalls.Load(); n != 2 {
		t.Fatalf("server saw %d GETs, want 2 (one kill, one retry)", n)
	}

	// The POST surfaces the transport error without a replay.
	if _, err := c.Decide(ctx, "t-killed", 0, 0); err == nil {
		t.Fatal("POST on killed connection must fail")
	}
	if n := postCalls.Load(); n != 1 {
		t.Fatalf("server saw %d POSTs, want 1 (no replay)", n)
	}

	// A hard-down server (connection refused) is not a transient mid-read
	// failure: the dial error is not one the client replays.
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close()
	_, err = NewClient(downURL).Session(ctx, "x")
	if err == nil {
		t.Fatal("GET against closed server must fail")
	}
	if isTransientNetErr(err) {
		t.Fatalf("dial failure classified as retryable: %v", err)
	}
}

// TestAPIErrorRetryable pins the retryable-status contract: the drain 503
// and the shed 429, nothing else.
func TestAPIErrorRetryable(t *testing.T) {
	cases := []struct {
		status int
		want   bool
	}{
		{http.StatusServiceUnavailable, true},
		{http.StatusTooManyRequests, true},
		{http.StatusNotFound, false},
		{http.StatusBadRequest, false},
		{http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		e := &APIError{Status: tc.status}
		if e.Retryable() != tc.want {
			t.Fatalf("Retryable(%d) = %v, want %v", tc.status, e.Retryable(), tc.want)
		}
	}
}
