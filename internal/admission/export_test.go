package admission

import (
	"slices"
	"sync"
	"time"
)

// BrownoutFlips returns how many times the gate has entered and exited
// brownout. Outside the tests, State reads gate 0's flips.
func (c *Controller) BrownoutFlips(gate int) (entered, exited int64) {
	c.limiter.mu.Lock()
	g := c.gate(gate)
	entered, exited = g.entered, g.exited
	c.limiter.mu.Unlock()
	return entered, exited
}

// twoLockController is the controller as it was before its gates moved
// under the limiter's mutex, kept verbatim (names aside) as the
// differential oracle of FuzzControllerOps: each gate has its own mutex,
// the limiter another, and a request takes TryAcquire, Admit and, on a
// shed, Release — three holds — where TryAdmit takes one.
type twoLockController struct {
	cfg     Config
	gates   []twoLockGate
	limiter *twoLockLimiter
}

type twoLockGate struct {
	mu       sync.Mutex
	est      float64 // EWMA per-round service estimate, ns
	backlog  time.Duration
	last     time.Time
	brownout bool
	// strike counts consecutive observations beyond the enter line
	// (positive) or below the exit line (negative); brownout flips at
	// ±BrownoutSustain.
	strike int
	// entered and exited count the brownout flips.
	entered, exited int64
}

func newTwoLockController(cfg Config, gates int) *twoLockController {
	cfg = cfg.withDefaults()
	if gates <= 0 {
		gates = 1
	}
	// Gates are indexed with a mask, so the count rounds up to a power of
	// two.
	for gates&(gates-1) != 0 {
		gates++
	}
	c := &twoLockController{cfg: cfg, gates: make([]twoLockGate, gates), limiter: newTwoLockLimiter(cfg.Limiter)}
	for i := range c.gates {
		c.gates[i].est = float64(cfg.InitialService)
	}
	return c
}

func (c *twoLockController) Admit(gate int, now time.Time, deadline time.Time, p Priority, rounds int) Decision {
	if rounds < 1 {
		rounds = 1
	}
	g := &c.gates[gate&(len(c.gates)-1)]
	g.mu.Lock()

	// Drain: the backlog empties in wall time between arrivals. A
	// non-monotonic clock (or the frozen virtual clock) drains nothing.
	if g.last.IsZero() {
		g.last = now
	} else if d := now.Sub(g.last); d > 0 {
		g.backlog -= d
		if g.backlog < 0 {
			g.backlog = 0
		}
		g.last = now
	}

	cost := time.Duration(g.est * float64(rounds))
	if deadline.IsZero() && c.cfg.DefaultBudget > 0 {
		deadline = now.Add(c.cfg.DefaultBudget)
	}

	// Brownout hysteresis observes every arrival, accepted or shed, so the
	// rung engages while the gate is refusing work, not only while it is
	// absorbing it.
	enter := time.Duration(c.cfg.BrownoutEnterFrac * float64(c.cfg.MaxBacklog))
	exit := time.Duration(c.cfg.BrownoutExitFrac * float64(c.cfg.MaxBacklog))
	switch {
	case !g.brownout && g.backlog > enter:
		if g.strike < 0 {
			g.strike = 0
		}
		if g.strike++; g.strike >= c.cfg.BrownoutSustain {
			g.brownout, g.strike = true, 0
			g.entered++
		}
	case g.brownout && g.backlog < exit:
		if g.strike > 0 {
			g.strike = 0
		}
		if g.strike--; g.strike <= -c.cfg.BrownoutSustain {
			g.brownout, g.strike = false, 0
			g.exited++
		}
	default:
		g.strike = 0
	}

	dec := Decision{OK: true, Brownout: g.brownout, QueueNS: int64(g.backlog)}
	retryAfter := g.backlog

	if !c.cfg.DisableShedding {
		switch {
		case g.backlog+cost > c.cfg.MaxBacklog:
			dec = Decision{Outcome: ShedBacklog, RetryAfter: retryAfter, Brownout: g.brownout}
		case g.backlog > c.shedThreshold(p):
			dec = Decision{Outcome: ShedPriority, RetryAfter: retryAfter, Brownout: g.brownout}
		case !deadline.IsZero() && now.Add(g.backlog+cost).After(deadline):
			dec = Decision{Outcome: ShedDeadline, RetryAfter: retryAfter, Brownout: g.brownout}
		}
	}

	if dec.OK {
		g.backlog += cost
	}
	g.mu.Unlock()
	return dec
}

func (c *twoLockController) shedThreshold(p Priority) time.Duration {
	switch p {
	case PriorityLow:
		return time.Duration(c.cfg.LowShedFrac * float64(c.cfg.MaxBacklog))
	case PriorityNormal:
		return time.Duration(c.cfg.NormalShedFrac * float64(c.cfg.MaxBacklog))
	}
	return c.cfg.MaxBacklog
}

func (c *twoLockController) Observe(gate int, perRound time.Duration) {
	if perRound <= 0 {
		return
	}
	g := &c.gates[gate&(len(c.gates)-1)]
	g.mu.Lock()
	g.est += c.cfg.EWMAAlpha * (float64(perRound) - g.est)
	g.mu.Unlock()
}

func (c *twoLockController) Backlog(gate int, now time.Time) time.Duration {
	g := &c.gates[gate&(len(c.gates)-1)]
	g.mu.Lock()
	b := g.backlog
	if !g.last.IsZero() {
		if d := now.Sub(g.last); d > 0 {
			b -= d
			if b < 0 {
				b = 0
			}
		}
	}
	g.mu.Unlock()
	return b
}

func (c *twoLockController) Brownout(gate int) bool {
	g := &c.gates[gate&(len(c.gates)-1)]
	g.mu.Lock()
	b := g.brownout
	g.mu.Unlock()
	return b
}

func (c *twoLockController) BrownoutFlips(gate int) (entered, exited int64) {
	g := &c.gates[gate&(len(c.gates)-1)]
	g.mu.Lock()
	entered, exited = g.entered, g.exited
	g.mu.Unlock()
	return entered, exited
}

func (c *twoLockController) Estimate(gate int) time.Duration {
	g := &c.gates[gate&(len(c.gates)-1)]
	g.mu.Lock()
	e := time.Duration(g.est)
	g.mu.Unlock()
	return e
}

// tryAdmit is what the in-process door did with the two-lock controller:
// TryAcquire, then Admit(0, …), then a latency-free Release on a gate shed.
func (c *twoLockController) tryAdmit(now, deadline time.Time, p Priority, rounds int) Decision {
	if !c.limiter.TryAcquire() {
		return Decision{Outcome: ShedLimiter}
	}
	dec := c.Admit(0, now, deadline, p, rounds)
	if !dec.OK {
		c.limiter.Release(0, nil)
	}
	return dec
}

// done is the door's completion: Observe(0, …) of the per-round time,
// then Release.
func (c *twoLockController) done(elapsed time.Duration, rounds int, now func() time.Time) {
	c.Observe(0, elapsed/time.Duration(rounds))
	c.limiter.Release(elapsed, now)
}

// twoLockLimiter is the limiter with its own mutex (Acquire, the blocking
// half, which the fuzzer does not drive, is left out).
type twoLockLimiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	limit    float64
	inflight int
	queue    []*waiter

	fast float64 // short-window latency EWMA, ns
	slow float64 // long-window baseline EWMA, ns
}

func newTwoLockLimiter(cfg LimiterConfig) *twoLockLimiter {
	cfg = cfg.withDefaults()
	return &twoLockLimiter{cfg: cfg, limit: float64(cfg.Initial)}
}

func (l *twoLockLimiter) TryAcquire() bool {
	l.mu.Lock()
	ok := l.inflight < int(l.limit)
	if ok {
		l.inflight++
	}
	l.mu.Unlock()
	return ok
}

func (l *twoLockLimiter) Release(latency time.Duration, now func() time.Time) {
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

func (l *twoLockLimiter) releaseSlotLocked() {
	if len(l.queue) == 0 {
		l.inflight--
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	// Hand the slot over without decrementing inflight.
	w.grant <- struct{}{}
}

func (l *twoLockLimiter) aimdLocked(latency time.Duration) {
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

func (l *twoLockLimiter) Limit() int {
	l.mu.Lock()
	v := int(l.limit)
	l.mu.Unlock()
	return v
}

func (l *twoLockLimiter) Inflight() int {
	l.mu.Lock()
	v := l.inflight
	l.mu.Unlock()
	return v
}
