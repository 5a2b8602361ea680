package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Client is the typed qcoordd API client used by the tests, the smoke
// harness and the load-test driver. It is safe for concurrent use.
//
// One retry is automatic: an idempotent GET whose connection died without
// a response (a killed connection mid-read, a stale pooled connection the
// server closed) is replayed once after a jittered backoff. POSTs are never
// replayed — the request may have executed — and every HTTP error status,
// including the server's retryable 429 (shed) and 503 (drain), surfaces to
// the caller. A token bucket caps the retry-to-request ratio so a fleet of
// clients cannot amplify a failing server's load into a retry storm: each
// request earns retryBudget tokens, each retry spends one.
type Client struct {
	base string
	hc   *http.Client

	tokMu  sync.Mutex
	tokens float64
}

// The retry policy: each request earns retryBudget tokens (at most ~10 %
// sustained retries), the bucket holds at most retryBurst (its initial
// fill), and the one retry waits a jittered [retryBackoff/2, retryBackoff).
const (
	retryBudget  = 0.1
	retryBurst   = 10
	retryBackoff = 5 * time.Millisecond
)

// NewClient targets a qcoordd base URL ("http://host:port", no trailing
// slash needed). The client rides a dedicated transport tuned for a
// high-rate decide workload against a single host (see newTransport).
func NewClient(base string) *Client {
	return &Client{
		base:   strings.TrimRight(base, "/"),
		hc:     &http.Client{Timeout: 30 * time.Second, Transport: newTransport()},
		tokens: retryBurst,
	}
}

// defaultClientConns sizes the per-host idle-connection pool. The load-test
// driver runs up to this many concurrent workers against one daemon; keeping
// that many warm connections means steady-state decides never pay a TCP
// handshake.
const defaultClientConns = 64

// newTransport builds an http.Transport tuned for the decide hot path:
// keep-alives on (the default transport closes idle conns aggressively under
// churn because MaxIdleConnsPerHost is 2 — at 64 concurrent workers that
// means constant re-dials), idle pool sized to the expected concurrency, and
// a generous idle timeout so a bursty open-loop generator reuses connections
// across gaps in the schedule.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        defaultClientConns,
		MaxIdleConnsPerHost: defaultClientConns,
		MaxConnsPerHost:     0, // unbounded; the generator bounds concurrency
		IdleConnTimeout:     90 * time.Second,
		ForceAttemptHTTP2:   false, // one host, many short exchanges: HTTP/1.1 pipelining via pooled conns wins
	}
}

// APIError is a non-2xx response, carrying the server's error message.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint, when present (shed 429s
	// and drain 503s carry one).
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("qcoordd: HTTP %d: %s", e.Status, e.Message)
}

// Retryable reports whether the request may be retried verbatim: the
// drain-mode 503 and the admission-shed 429, both issued before the server
// touches session state.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusServiceUnavailable || e.Status == http.StatusTooManyRequests
}

// isTransientNetErr classifies transport failures that mean the connection
// died without a response — a stale pooled connection the server already
// closed, a reset mid-exchange. Safe to replay only for idempotent
// requests.
func isTransientNetErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "connection reset") ||
		strings.Contains(s, "broken pipe") ||
		strings.Contains(s, "server closed idle connection")
}

// refillTokens credits one original request's worth of retry budget.
func (c *Client) refillTokens() {
	c.tokMu.Lock()
	c.tokens = min(c.tokens+retryBudget, retryBurst)
	c.tokMu.Unlock()
}

// takeToken spends one retry token, reporting whether the budget allowed it.
func (c *Client) takeToken() bool {
	c.tokMu.Lock()
	ok := c.tokens >= 1
	if ok {
		c.tokens--
	}
	c.tokMu.Unlock()
	return ok
}

// do issues one API call, decoding the JSON response into out (ignored when
// nil). A GET whose connection died without a response is retried once,
// budget permitting.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
	}
	c.refillTokens()
	err := c.once(ctx, method, path, body, out)
	if err == nil || ctx.Err() != nil || method != http.MethodGet {
		return err
	}
	// Only a dead connection is replayed: an HTTP status is the server's
	// answer.
	var ae *APIError
	if errors.As(err, &ae) || !isTransientNetErr(err) || !c.takeToken() {
		return err
	}
	time.Sleep(retryBackoff/2 + time.Duration(rand.Float64()*float64(retryBackoff/2)))
	return c.once(ctx, method, path, body, out)
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var ae apiError
		msg := ""
		if err := json.NewDecoder(resp.Body).Decode(&ae); err == nil {
			msg = ae.Error
		}
		e := &APIError{Status: resp.StatusCode, Message: msg}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
		return e
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateSession registers an endpoint group and provisions its entanglement
// supply, returning the created session's initial health.
func (c *Client) CreateSession(ctx context.Context, req SessionRequest) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info)
	return info, err
}

// Decide plays one coordination round in a session.
func (c *Client) Decide(ctx context.Context, session string, x, y int) (DecideResponse, error) {
	var resp DecideResponse
	err := c.do(ctx, http.MethodPost, "/v1/decide", DecideRequest{Session: session, X: x, Y: y}, &resp)
	return resp, err
}

// DecideBatch plays len(rounds) coordination rounds in one HTTP exchange,
// amortizing connection, header and JSON overhead across the batch. Results
// come back in request order.
func (c *Client) DecideBatch(ctx context.Context, session string, rounds []Round) ([]DecideResponse, error) {
	return c.DecideBatchDeadline(ctx, session, time.Time{}, rounds)
}

// DecideBatchDeadline is DecideBatch with one absolute deadline shared by
// the whole batch, so an admission-enabled server can shed it rather than
// serve it late. A zero deadline means unstamped — the wire spells that 0
// (see deadlineOf), which time.Time{}.UnixNano() is not.
func (c *Client) DecideBatchDeadline(ctx context.Context, session string, deadline time.Time, rounds []Round) ([]DecideResponse, error) {
	req := DecideBatchRequest{Session: session, Rounds: rounds}
	if !deadline.IsZero() {
		req.DeadlineUnixNS = deadline.UnixNano()
	}
	var resp DecideBatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/decide/batch", req, &resp)
	return resp.Results, err
}

// Session fetches a session's current health and degradation rung.
func (c *Client) Session(ctx context.Context, id string) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Metrics fetches the raw /metrics rendering.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: string(b)}
	}
	return string(b), nil
}
