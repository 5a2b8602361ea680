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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Client is the typed qcoordd API client used by the tests, the smoke
// harness and the load-test driver. It is safe for concurrent use.
//
// Retries are budgeted: transport failures on idempotent GETs (a killed
// connection mid-read, a stale pooled connection the server closed) retry
// automatically, and — when RetryConfig.StatusRetry is enabled — so do the
// server's retryable statuses (429 shed, 503 drain), honoring Retry-After.
// A token bucket caps the retry-to-request ratio so a fleet of clients
// cannot amplify an overloaded server's offered load into a retry storm:
// each original request earns Budget tokens, each retry spends one, so the
// sustained retry ratio never exceeds Budget regardless of how hard the
// server sheds.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryConfig

	tokMu  sync.Mutex
	tokens float64

	nRequests     atomic.Int64
	nAttempts     atomic.Int64
	nRetries      atomic.Int64
	nBudgetDenied atomic.Int64
	nHedges       atomic.Int64
}

// RetryConfig tunes the client's retry and hedging behavior. The zero value
// is usable: withDefaults fills every field. The defaults preserve the
// pre-retry contract for everything except idempotent-GET transport errors:
// POSTs are never replayed on a dead connection (the request may have
// executed), and retryable statuses surface to the caller unless
// StatusRetry opts in.
type RetryConfig struct {
	// MaxAttempts bounds total attempts per call (1 = no retries).
	// Default 2.
	MaxAttempts int
	// StatusRetry also retries the server's retryable statuses — 429 (shed)
	// and 503 (drain) — for any method. The server sheds before touching
	// session state, so replaying a shed POST never double-plays a round.
	// Default false: those statuses surface to the caller.
	StatusRetry bool
	// Budget is the retry-token earn rate per original request; each retry
	// spends one token. Default 0.1 — at most ~10% sustained retry ratio.
	Budget float64
	// Burst caps banked retry tokens (and seeds the bucket). Default 10.
	Burst float64
	// BaseBackoff is the first retry's backoff; attempts double it. The
	// server's Retry-After, when present, overrides the exponential.
	// Default 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps any single backoff, including Retry-After hints.
	// Default 1s.
	MaxBackoff time.Duration
	// HedgeAfter, when positive, hedges Session info reads: if the first
	// GET has not answered within this delay, a second identical GET races
	// it and the first response wins. Info reads are idempotent and cheap
	// server-side, so hedging trims tail latency without risking
	// double-played rounds. Default 0 (disabled).
	HedgeAfter time.Duration
	// Sleep and Rand are injectable for deterministic tests (defaults
	// time.Sleep and math/rand.Float64; Rand jitters the exponential
	// backoff across a fleet so retries do not arrive in lockstep).
	Sleep func(time.Duration)
	Rand  func() float64
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 2
	}
	if rc.Budget <= 0 {
		rc.Budget = 0.1
	}
	if rc.Burst <= 0 {
		rc.Burst = 10
	}
	if rc.BaseBackoff <= 0 {
		rc.BaseBackoff = 5 * time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = time.Second
	}
	if rc.Sleep == nil {
		rc.Sleep = time.Sleep
	}
	if rc.Rand == nil {
		rc.Rand = rand.Float64
	}
	return rc
}

// ClientStats is a snapshot of the client's retry accounting.
type ClientStats struct {
	// Requests is the number of API calls issued (hedge duplicates count
	// as their own requests).
	Requests int64
	// Attempts is the total HTTP exchanges, including retries.
	Attempts int64
	// Retries is how many attempts were retries of a failed exchange.
	Retries int64
	// BudgetDenied counts retries suppressed by an empty token bucket.
	BudgetDenied int64
	// Hedges counts hedged info reads that actually fired a second GET.
	Hedges int64
}

// Stats snapshots the retry accounting.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:     c.nRequests.Load(),
		Attempts:     c.nAttempts.Load(),
		Retries:      c.nRetries.Load(),
		BudgetDenied: c.nBudgetDenied.Load(),
		Hedges:       c.nHedges.Load(),
	}
}

// NewClient targets a qcoordd base URL ("http://host:port", no trailing
// slash needed). The client rides a dedicated transport tuned for a
// high-rate decide workload against a single host (see newTransport); for
// the default pooling behavior use NewRetryClient(base, nil, RetryConfig{}).
func NewClient(base string) *Client {
	return NewRetryClient(base, &http.Client{
		Timeout:   30 * time.Second,
		Transport: newTransport(defaultClientConns),
	}, RetryConfig{})
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
func newTransport(conns int) *http.Transport {
	if conns <= 0 {
		conns = defaultClientConns
	}
	return &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     0, // unbounded; the generator bounds concurrency
		IdleConnTimeout:     90 * time.Second,
		ForceAttemptHTTP2:   false, // one host, many short exchanges: HTTP/1.1 pipelining via pooled conns wins
	}
}

// NewRetryClient targets base using a caller-supplied http.Client (nil means
// a default-transport client with a 30 s timeout) and retry tuning (the zero
// RetryConfig is the default behavior).
func NewRetryClient(base string, hc *http.Client, rc RetryConfig) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	rc = rc.withDefaults()
	return &Client{base: base, hc: hc, retry: rc, tokens: rc.Burst}
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
	c.tokens += c.retry.Budget
	if c.tokens > c.retry.Burst {
		c.tokens = c.retry.Burst
	}
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

// backoff is the jittered exponential delay before retry `attempt`
// (1-based count of completed attempts): base×2^(attempt−1), capped, then
// spread over [d/2, d) so fleet retries decorrelate.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.retry.BaseBackoff << (attempt - 1)
	if d > c.retry.MaxBackoff || d <= 0 {
		d = c.retry.MaxBackoff
	}
	return d/2 + time.Duration(c.retry.Rand()*float64(d/2))
}

// retryDelay classifies a failed attempt: (delay, true) when the attempt
// may be retried after delay, (0, false) when the error must surface.
func (c *Client) retryDelay(method string, err error, attempt int) (time.Duration, bool) {
	var ae *APIError
	if errors.As(err, &ae) {
		if !c.retry.StatusRetry || !ae.Retryable() {
			return 0, false
		}
		if ae.RetryAfter > 0 {
			// Honor the server's hint — it knows when its backlog drains —
			// capped so a pathological header cannot park the client.
			d := ae.RetryAfter
			if d > c.retry.MaxBackoff {
				d = c.retry.MaxBackoff
			}
			return d, true
		}
		return c.backoff(attempt), true
	}
	// Transport error: the connection died. Only idempotent GETs are safe
	// to replay — a POST may have executed before the connection dropped.
	if method == http.MethodGet && isTransientNetErr(err) {
		return c.backoff(attempt), true
	}
	return 0, false
}

// do issues one API call with retries, decoding the JSON response into out
// (ignored when nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
	}
	c.nRequests.Add(1)
	c.refillTokens()
	for attempt := 1; ; attempt++ {
		c.nAttempts.Add(1)
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if attempt >= c.retry.MaxAttempts || ctx.Err() != nil {
			return err
		}
		delay, retryable := c.retryDelay(method, err, attempt)
		if !retryable {
			return err
		}
		if !c.takeToken() {
			c.nBudgetDenied.Add(1)
			return err
		}
		c.nRetries.Add(1)
		c.retry.Sleep(delay)
	}
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

// Session fetches a session's current health and degradation rung. With
// RetryConfig.HedgeAfter set, a slow read is hedged with a second identical
// GET and the first response wins.
func (c *Client) Session(ctx context.Context, id string) (SessionInfo, error) {
	path := "/v1/sessions/" + id
	if c.retry.HedgeAfter <= 0 {
		var info SessionInfo
		err := c.do(ctx, http.MethodGet, path, nil, &info)
		return info, err
	}
	type result struct {
		info SessionInfo
		err  error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing read
	ch := make(chan result, 2)
	fire := func() {
		var info SessionInfo
		err := c.do(hctx, http.MethodGet, path, nil, &info)
		ch <- result{info, err}
	}
	go fire()
	timer := time.NewTimer(c.retry.HedgeAfter)
	defer timer.Stop()
	pending, hedged := 1, false
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.info, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending--; pending == 0 {
				return SessionInfo{}, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				c.nHedges.Add(1)
				go fire()
			}
		}
	}
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
