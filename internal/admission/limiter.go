package admission

import (
	"slices"
	"sync"
	"time"
)

// LimiterConfig tunes the adaptive concurrency limiter. The zero value is
// usable: withDefaults fills every field.
type LimiterConfig struct {
	// Initial is the starting concurrency limit. Default 32.
	Initial int
	// Min / Max bound the adaptive limit. Defaults 4 and 1024.
	Min int
	Max int
	// QueueDepth bounds the FIFO of waiters held when the limit is
	// reached; arrivals beyond it are rejected immediately. Default 64.
	QueueDepth int
	// Tolerance is the latency-gradient trip point: when the short-window
	// latency exceeds Tolerance × the long-window baseline, the limit
	// backs off multiplicatively. Default 2.0.
	Tolerance float64
	// Backoff is the multiplicative-decrease factor. Default 0.9.
	Backoff float64
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Initial <= 0 {
		c.Initial = 32
	}
	if c.Min <= 0 {
		c.Min = 4
	}
	if c.Max <= 0 {
		c.Max = 1024
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Tolerance <= 1 {
		c.Tolerance = 2.0
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.9
	}
	return c
}

// waiter is one queued acquisition. The grant channel receives one value
// when a slot is handed over. A waiter is in the queue exactly until it is
// granted or expired: both happen under the limiter lock, so a waiter that
// times out either finds the racing grant (and passes the slot on) or
// takes itself out of the queue.
type waiter struct {
	grant    chan struct{}
	deadline time.Time
}

// Limiter is an AIMD adaptive concurrency limiter (additive increase while
// the limit is utilized and latency is healthy, multiplicative decrease on
// a latency-gradient trip), with a bounded FIFO whose entries are expired
// CoDel-style — a waiter whose deadline lapses leaves the queue, and each
// release sweeps out any whose timer has not fired yet, so a stale request
// never occupies a concurrency slot or a queue place.
//
// The latency gradient compares a fast EWMA of recent completion latencies
// against a slow EWMA baseline; both ignore non-positive samples, so
// virtual-time runs (frozen clock, zero measured latency) never trip the
// limiter and its behavior stays a pure function of arrival order.
type Limiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	limit    float64
	inflight int
	queue    []*waiter

	fast float64 // short-window latency EWMA, ns
	slow float64 // long-window baseline EWMA, ns
}

// NewLimiter builds a limiter. It counts nothing: the caller sees every
// outcome TryAcquire and Acquire return.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.Initial)}
}

// TryAcquire takes a slot without queueing (the in-process fast path; it
// is allocation-free). Release must be called iff it returns true.
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	ok := l.inflight < int(l.limit)
	if ok {
		l.inflight++
	}
	l.mu.Unlock()
	return ok
}

// Acquire takes a slot, queueing in FIFO order up to QueueDepth when the
// limit is reached. `deadline` (zero = none) bounds the queue wait: a
// waiter whose deadline lapses is expired rather than granted. The outcome
// is Accepted (Release must be called), ShedLimiter (queue full) or
// ShedExpired (deadline lapsed while queued). `now` is used for the expiry
// checks so the caller's clock stays authoritative.
func (l *Limiter) Acquire(now func() time.Time, deadline time.Time) Outcome {
	l.mu.Lock()
	if l.inflight < int(l.limit) && len(l.queue) == 0 {
		l.inflight++
		l.mu.Unlock()
		return Accepted
	}
	if len(l.queue) >= l.cfg.QueueDepth {
		l.mu.Unlock()
		return ShedLimiter
	}
	w := &waiter{grant: make(chan struct{}, 1), deadline: deadline}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	if deadline.IsZero() {
		<-w.grant
		return Accepted
	}
	wait := deadline.Sub(now())
	if wait < 0 {
		wait = 0
	}
	timer := time.NewTimer(wait)
	select {
	case <-w.grant:
		timer.Stop()
		return Accepted
	case <-timer.C:
	}
	// Deadline lapsed while queued. If a grant raced in anyway, pass the
	// slot on (or release it); otherwise leave the queue, so an expired
	// waiter never counts against QueueDepth.
	l.mu.Lock()
	select {
	case <-w.grant:
		// The slot arrived between the timeout and the lock: hand it to
		// the next live waiter instead of wasting it.
		l.releaseSlotLocked()
	default:
		l.queue = slices.DeleteFunc(l.queue, func(q *waiter) bool { return q == w })
	}
	l.mu.Unlock()
	return ShedExpired
}

// Release returns a slot and feeds the completion latency to the AIMD
// update. Non-positive latency (virtual time) skips the update.
func (l *Limiter) Release(latency time.Duration, now func() time.Time) {
	l.mu.Lock()
	l.aimdLocked(latency)
	l.releaseSlotLocked()
	// CoDel-style sweep: expire queued waiters whose deadline lapsed, so a
	// burst of stale entries cannot delay live ones behind them.
	if len(l.queue) > 0 && now != nil {
		t := now()
		l.queue = slices.DeleteFunc(l.queue, func(w *waiter) bool { return !w.deadline.IsZero() && t.After(w.deadline) })
	}
	l.mu.Unlock()
}

// releaseSlotLocked frees one slot, granting it to the first queued waiter
// if any.
func (l *Limiter) releaseSlotLocked() {
	if len(l.queue) == 0 {
		l.inflight--
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	// Hand the slot over without decrementing inflight.
	w.grant <- struct{}{}
}

// aimdLocked is the Netflix-style gradient update: multiplicative decrease
// when the fast latency EWMA exceeds Tolerance × the slow baseline,
// additive (+1/limit per completion ≈ +1 per round trip) increase while
// the limit is actually utilized.
func (l *Limiter) aimdLocked(latency time.Duration) {
	if latency <= 0 {
		return
	}
	x := float64(latency)
	if l.slow == 0 {
		l.slow, l.fast = x, x
	} else {
		l.fast += 0.3 * (x - l.fast)
		l.slow += 0.01 * (x - l.slow)
	}
	switch {
	case l.fast > l.cfg.Tolerance*l.slow:
		l.limit *= l.cfg.Backoff
		if l.limit < float64(l.cfg.Min) {
			l.limit = float64(l.cfg.Min)
		}
	case l.inflight >= int(l.limit)-1:
		l.limit += 1 / l.limit
		if l.limit > float64(l.cfg.Max) {
			l.limit = float64(l.cfg.Max)
		}
	}
}

// Limit returns the current adaptive limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	v := int(l.limit)
	l.mu.Unlock()
	return v
}

// Inflight returns the current in-flight count.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	v := l.inflight
	l.mu.Unlock()
	return v
}

// Queued returns the number of waiters in the queue.
func (l *Limiter) Queued() int {
	l.mu.Lock()
	v := len(l.queue)
	l.mu.Unlock()
	return v
}
