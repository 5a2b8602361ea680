// Package admission is qcoordd's overload-resilience layer. The paper's
// advantage argument is a deadline argument: a routing decision that lands
// after the coordination deadline is worth no more than the classical
// floor, so a serving layer that queues unboundedly under overload converts
// 100% of its traffic into worthless late answers. This package instead
// sheds the excess and keeps the remainder in-deadline:
//
//   - Deadline gate: each request carries an absolute deadline. A per-gate
//     EWMA service-time estimator and a virtual-backlog model (a Lindley
//     queue draining in wall time) predict the request's sojourn; requests
//     that cannot finish inside their budget are rejected immediately with
//     a retryable status instead of being served late.
//   - Priority shedding: sessions are provisioned with a priority tier.
//     As the backlog climbs, low-priority traffic is shed first, then
//     normal; high-priority traffic is only ever refused by the hard
//     backlog cap or its own deadline.
//   - Brownout: between "shed normal" and "touch high-priority" sits a
//     cheaper rung — sustained backlog flips the gate into brownout, and
//     its sessions play the best-classical strategy without consuming
//     pool pairs or quantum sampling (core.HealthMonitor's load-driven
//     rung). Brownout engages before any high-priority shedding and
//     releases with hysteresis once the backlog drains.
//
// The adaptive concurrency limiter (AIMD on the observed latency gradient)
// lives in limiter.go and gates handler concurrency ahead of the session
// locks; the pipeline order is limiter → deadline gate → session lock.
// One mutex, the limiter's, covers the limiter and the gates, so a request
// passes both in one hold (TryAdmit, AcquireAdmit) and completes in one
// more (Done).
//
// Everything here is deterministic given its inputs: the controller holds
// no clock — callers pass `now` — and consumes no randomness, so the
// virtual-time loadtest backend can pin overload behavior byte-for-byte.
//
// The package counts nothing. Its doors (Admit, TryAdmit, AcquireAdmit,
// TryAcquire, Acquire) return every outcome to the caller, which counts
// what it is handed (serve's play does, into its own server's registry);
// the state held here — each gate's backlog, estimate and brownout flips,
// the limiter's limit, in-flight and queued counts — is read through
// accessors when someone asks, or all at one instant through State.
package admission

import (
	"fmt"
	"time"
)

// Priority is a session-provisioned shedding tier. Lower values shed last.
type Priority int

const (
	// PriorityHigh traffic is refused only by the hard backlog cap or its
	// own deadline.
	PriorityHigh Priority = iota
	// PriorityNormal is the default tier.
	PriorityNormal
	// PriorityLow traffic sheds first under load.
	PriorityLow
)

// String names the tier (the wire spelling accepted by ParsePriority).
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityNormal:
		return "normal"
	case PriorityLow:
		return "low"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// ParsePriority maps the wire spelling to a tier. Empty means normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return PriorityNormal, fmt.Errorf("admission: unknown priority %q (want high|normal|low)", s)
}

// Config tunes the admission controller. The zero value is usable:
// withDefaults fills every field.
type Config struct {
	// InitialService seeds each gate's EWMA estimate of per-round service
	// time. In virtual-time runs the wall clock never advances during a
	// request, measured samples are zero and discarded, and this seed IS
	// the model — making the whole gate a pure function of the arrival
	// plan. Default 50µs.
	InitialService time.Duration
	// EWMAAlpha is the weight of a new service-time sample. Default 0.1.
	EWMAAlpha float64
	// MaxBacklog caps each gate's modeled queue: requests that would push
	// the backlog past it are shed regardless of priority or deadline.
	// Default 50ms.
	MaxBacklog time.Duration
	// DefaultBudget is the deadline applied to requests that arrive
	// unstamped. Zero leaves them deadline-free (gated only by priority
	// thresholds and the backlog cap).
	DefaultBudget time.Duration
	// LowShedFrac / NormalShedFrac are the backlog fractions (of
	// MaxBacklog) above which low- and normal-priority traffic sheds.
	// Defaults 0.40 and 0.60 — both below BrownoutEnterFrac, so cheap
	// traffic sheds before brownout, and brownout engages before the hard
	// cap ever touches high-priority traffic.
	LowShedFrac    float64
	NormalShedFrac float64
	// BrownoutEnterFrac / BrownoutExitFrac bound the brownout hysteresis
	// band as fractions of MaxBacklog. Defaults 0.75 and 0.25.
	BrownoutEnterFrac float64
	BrownoutExitFrac  float64
	// BrownoutSustain is how many consecutive admissions must observe the
	// backlog beyond (below) the enter (exit) line before brownout flips
	// on (off) — sustained overload, not a burst. Default 8.
	BrownoutSustain int
	// DisableShedding runs the controller observe-only: backlog and
	// brownout state are tracked and reported but every request is
	// admitted. This is the pre-PR behavior, kept wired so the overload
	// test can document the collapse it causes.
	DisableShedding bool
	// Limiter tunes the adaptive concurrency limiter (limiter.go).
	Limiter LimiterConfig
}

func (c Config) withDefaults() Config {
	if c.InitialService <= 0 {
		c.InitialService = 50 * time.Microsecond
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.1
	}
	if c.MaxBacklog <= 0 {
		c.MaxBacklog = 50 * time.Millisecond
	}
	if c.LowShedFrac <= 0 {
		c.LowShedFrac = 0.40
	}
	if c.NormalShedFrac <= 0 {
		c.NormalShedFrac = 0.60
	}
	if c.BrownoutEnterFrac <= 0 {
		c.BrownoutEnterFrac = 0.75
	}
	if c.BrownoutExitFrac <= 0 {
		c.BrownoutExitFrac = 0.25
	}
	if c.BrownoutSustain <= 0 {
		c.BrownoutSustain = 8
	}
	return c
}

// Outcome classifies an admission decision.
type Outcome int

const (
	// Accepted: the request proceeds past its gate.
	Accepted Outcome = iota
	// ShedDeadline: the modeled sojourn exceeds the request's remaining
	// budget — serving it would produce a late, worthless answer.
	ShedDeadline
	// ShedPriority: the backlog crossed the request's tier threshold.
	ShedPriority
	// ShedBacklog: the hard backlog cap (applies to every tier).
	ShedBacklog
	// ShedLimiter: the concurrency limiter's queue was full.
	ShedLimiter
	// ShedExpired: the request's deadline lapsed while queued at the
	// limiter (CoDel-style expiry on dequeue).
	ShedExpired
)

// String names the outcome for error messages and metrics.
func (o Outcome) String() string {
	switch o {
	case Accepted:
		return "accepted"
	case ShedDeadline:
		return "deadline"
	case ShedPriority:
		return "priority"
	case ShedBacklog:
		return "backlog"
	case ShedLimiter:
		return "limiter"
	case ShedExpired:
		return "expired"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Decision is the result of one Admit call.
type Decision struct {
	// OK reports whether the request was admitted.
	OK bool
	// Outcome is Accepted, or the shed reason when !OK.
	Outcome Outcome
	// QueueNS is the modeled wait already in the gate's queue ahead of an
	// accepted request (excluding the request's own service time); the
	// server charges it into the response so deadline accounting sees the
	// queueing delay virtual time cannot measure.
	QueueNS int64
	// RetryAfter is the suggested client backoff for a shed request —
	// roughly when the modeled backlog will have drained.
	RetryAfter time.Duration
	// Brownout reports whether the gate is in load-driven brownout; the
	// session then plays the cheap best-classical round.
	Brownout bool
}

// Verdict is a Decision in three fields: what the one-hold doors, TryAdmit
// and AcquireAdmit, return. The compiler keeps a struct this small in
// registers; a Decision's five fields it keeps in memory and copies whole,
// and a copy that reloads byte-wide stores as words stalls.
type Verdict struct {
	// Outcome is Accepted, or the shed reason.
	Outcome Outcome
	// Backlog is the modeled backlog ahead of the request: its queue wait
	// when accepted (Decision.QueueNS), the retry hint when shed
	// (Decision.RetryAfter).
	Backlog time.Duration
	// Brownout is Decision.Brownout.
	Brownout bool
}

// decision spells the verdict out as Admit's Decision.
func (v Verdict) decision() Decision {
	if v.Outcome != Accepted {
		return Decision{Outcome: v.Outcome, RetryAfter: v.Backlog, Brownout: v.Brownout}
	}
	return Decision{OK: true, QueueNS: int64(v.Backlog), Brownout: v.Brownout}
}

// gate is one queue's admission state. The virtual backlog is a Lindley
// recursion: it drains in wall time between arrivals and grows by the
// modeled cost of each accepted request. The controller's one mutex (its
// limiter's) guards it.
type gate struct {
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

// Controller is the per-server admission state: its gates (serve runs one,
// the server's single queue) plus one shared concurrency limiter. One
// mutex, the limiter's, covers the limiter and every gate, so TryAdmit
// takes a slot and gates the request in one hold, and Done observes and
// releases in one more. Every method is safe for concurrent use;
// determinism is per-gate (each gate's decisions depend only on the order
// of its own arrivals, which the virtual backend fixes).
type Controller struct {
	limiter Limiter
	gates   []gate
	cfg     Config
	// The backlog lines, fixed by cfg: brownout's enter and exit, and the
	// shed threshold of each tier (indexed by Priority).
	enter, exit time.Duration
	shedAt      [PriorityLow + 1]time.Duration
}

// NewController builds a controller with `gates` gates (serve asks for
// one).
func NewController(cfg Config, gates int) *Controller {
	cfg = cfg.withDefaults()
	if gates <= 0 {
		gates = 1
	}
	// Gates are indexed with a mask, so the count rounds up to a power of
	// two.
	for gates&(gates-1) != 0 {
		gates++
	}
	c := &Controller{cfg: cfg, gates: make([]gate, gates)}
	c.limiter.init(cfg.Limiter)
	for i := range c.gates {
		c.gates[i].est = float64(cfg.InitialService)
	}
	c.enter = time.Duration(cfg.BrownoutEnterFrac * float64(cfg.MaxBacklog))
	c.exit = time.Duration(cfg.BrownoutExitFrac * float64(cfg.MaxBacklog))
	c.shedAt = [...]time.Duration{
		PriorityHigh:   cfg.MaxBacklog,
		PriorityNormal: time.Duration(cfg.NormalShedFrac * float64(cfg.MaxBacklog)),
		PriorityLow:    time.Duration(cfg.LowShedFrac * float64(cfg.MaxBacklog)),
	}
	return c
}

// Limiter returns the controller's shared concurrency limiter.
func (c *Controller) Limiter() *Limiter { return &c.limiter }

// Shards returns the number of gates.
func (c *Controller) Shards() int { return len(c.gates) }

// gate returns gate i (masked into range).
func (c *Controller) gate(i int) *gate { return &c.gates[i&(len(c.gates)-1)] }

// Admit gates one request of `rounds` decision rounds for a session at
// gate index `gate` and tier `p`. `deadline` is the request's absolute deadline (zero
// = unstamped → DefaultBudget applies, if configured). The call is
// allocation-free.
func (c *Controller) Admit(gate int, now time.Time, deadline time.Time, p Priority, rounds int) Decision {
	c.limiter.mu.Lock()
	v := c.admitLocked(c.gate(gate), now, deadline, p, rounds)
	c.limiter.mu.Unlock()
	return v.decision()
}

// TryAdmit is the non-blocking door in one hold: it takes a limiter slot
// without queueing (TryAcquire), gates the request at gate 0
// (Admit(0, …)), and on a gate shed gives the slot back (Release with no
// latency). A full limiter sheds with ShedLimiter and leaves the gate
// untouched. Done must be called iff the verdict is Accepted. The call is
// allocation-free.
func (c *Controller) TryAdmit(now, deadline time.Time, p Priority, rounds int) Verdict {
	l := &c.limiter
	l.mu.Lock()
	if l.inflight >= int(l.limit) {
		l.mu.Unlock()
		return Verdict{Outcome: ShedLimiter}
	}
	l.inflight++
	v := c.admitLocked(&c.gates[0], now, deadline, p, rounds)
	if v.Outcome != Accepted {
		l.releaseSlotLocked()
	}
	l.mu.Unlock()
	return v
}

// AcquireAdmit is the blocking door: Acquire, then a clock read, then
// Admit(0, …), releasing the slot on a gate shed. The clock is read after
// the limiter, so time queued there counts against the deadline; when the
// limiter has room and no queue, all three happen in one hold. It returns
// the clock reading (zero if the limiter shed) and the verdict; Done must
// be called iff the verdict is Accepted.
func (c *Controller) AcquireAdmit(clock func() time.Time, deadline time.Time, p Priority, rounds int) (time.Time, Verdict) {
	l := &c.limiter
	l.mu.Lock()
	if l.inflight < int(l.limit) && len(l.queue) == 0 {
		l.inflight++
	} else {
		l.mu.Unlock()
		if o := l.Acquire(clock, deadline); o != Accepted {
			return time.Time{}, Verdict{Outcome: o}
		}
		l.mu.Lock()
	}
	now := clock()
	v := c.admitLocked(&c.gates[0], now, deadline, p, rounds)
	if v.Outcome != Accepted {
		l.releaseSlotLocked()
	}
	l.mu.Unlock()
	return now, v
}

// admitLocked is Admit's body; the caller holds the controller's mutex.
func (c *Controller) admitLocked(g *gate, now time.Time, deadline time.Time, p Priority, rounds int) Verdict {
	if rounds < 1 {
		rounds = 1
	}

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
	switch {
	case !g.brownout && g.backlog > c.enter:
		if g.strike < 0 {
			g.strike = 0
		}
		if g.strike++; g.strike >= c.cfg.BrownoutSustain {
			g.brownout, g.strike = true, 0
			g.entered++
		}
	case g.brownout && g.backlog < c.exit:
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

	outcome := Accepted
	if !c.cfg.DisableShedding {
		switch {
		case g.backlog+cost > c.cfg.MaxBacklog:
			outcome = ShedBacklog
		case g.backlog > c.shedThreshold(p):
			outcome = ShedPriority
		case !deadline.IsZero() && now.Add(g.backlog+cost).After(deadline):
			outcome = ShedDeadline
		}
	}
	v := Verdict{Outcome: outcome, Backlog: g.backlog, Brownout: g.brownout}
	if outcome == Accepted {
		g.backlog += cost
	}
	return v
}

// shedThreshold is the backlog above which tier p sheds. High-priority
// traffic has no tier threshold — only the hard cap and its own deadline.
func (c *Controller) shedThreshold(p Priority) time.Duration {
	if uint(p) < uint(len(c.shedAt)) {
		return c.shedAt[p]
	}
	return c.cfg.MaxBacklog
}

// Done completes an admitted request in one hold: Observe(0, …) of its
// per-round service time (elapsed over rounds) and Release(elapsed, now).
func (c *Controller) Done(elapsed time.Duration, rounds int, now func() time.Time) {
	if rounds < 1 {
		rounds = 1
	}
	l := &c.limiter
	l.mu.Lock()
	c.observeLocked(&c.gates[0], elapsed/time.Duration(rounds))
	l.releaseLocked(elapsed, now)
	l.mu.Unlock()
}

// Observe feeds a measured per-round wall service time into the gate's
// EWMA estimator. Non-positive samples are discarded — in virtual-time
// runs the clock is frozen during a request, so the estimate stays at its
// InitialService seed and the gate remains a pure function of the plan.
func (c *Controller) Observe(gate int, perRound time.Duration) {
	c.limiter.mu.Lock()
	c.observeLocked(c.gate(gate), perRound)
	c.limiter.mu.Unlock()
}

// observeLocked is Observe's body; the caller holds the controller's mutex.
func (c *Controller) observeLocked(g *gate, perRound time.Duration) {
	if perRound > 0 {
		g.est += c.cfg.EWMAAlpha * (float64(perRound) - g.est)
	}
}

// Backlog returns the gate's current modeled backlog after draining to
// `now` (test/introspection hook; does not mutate the drain clock).
func (c *Controller) Backlog(gate int, now time.Time) time.Duration {
	c.limiter.mu.Lock()
	b := c.gate(gate).backlogAt(now)
	c.limiter.mu.Unlock()
	return b
}

// backlogAt is the gate's backlog drained to now, without moving its drain
// clock.
func (g *gate) backlogAt(now time.Time) time.Duration {
	b := g.backlog
	if !g.last.IsZero() {
		if d := now.Sub(g.last); d > 0 {
			b -= d
			if b < 0 {
				b = 0
			}
		}
	}
	return b
}

// Brownout reports whether the gate is currently in brownout.
func (c *Controller) Brownout(gate int) bool {
	c.limiter.mu.Lock()
	b := c.gate(gate).brownout
	c.limiter.mu.Unlock()
	return b
}

// Estimate returns the gate's current per-round service estimate.
func (c *Controller) Estimate(gate int) time.Duration {
	c.limiter.mu.Lock()
	e := time.Duration(c.gate(gate).est)
	c.limiter.mu.Unlock()
	return e
}

// State is gate 0 and the limiter read at one instant: what serve's
// /metrics reports.
type State struct {
	// Backlog is drained to the read time, as Backlog reports it.
	Backlog  time.Duration
	Estimate time.Duration
	// BrownoutEntered and BrownoutExited count the flips.
	BrownoutEntered, BrownoutExited int64
	Limit, Inflight, Queued         int
}

// State reads gate 0 (its backlog drained to now) and the limiter in one
// hold, so no reading pairs one instant's backlog with another's in-flight
// count.
func (c *Controller) State(now time.Time) State {
	l := &c.limiter
	l.mu.Lock()
	g := &c.gates[0]
	st := State{
		Backlog:         g.backlogAt(now),
		Estimate:        time.Duration(g.est),
		BrownoutEntered: g.entered,
		BrownoutExited:  g.exited,
		Limit:           int(l.limit),
		Inflight:        l.inflight,
		Queued:          len(l.queue),
	}
	l.mu.Unlock()
	return st
}
