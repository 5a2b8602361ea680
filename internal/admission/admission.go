// Package admission is qcoordd's overload-resilience layer. The paper's
// advantage argument is a deadline argument: a routing decision that lands
// after the coordination deadline is worth no more than the classical
// floor, so a serving layer that queues unboundedly under overload converts
// 100% of its traffic into worthless late answers. This package instead
// sheds the excess and keeps the remainder in-deadline:
//
//   - Deadline gate: each request carries an absolute deadline. A per-shard
//     EWMA service-time estimator and a virtual-backlog model (a Lindley
//     queue draining in wall time) predict the request's sojourn; requests
//     that cannot finish inside their budget are rejected immediately with
//     a retryable status instead of being served late.
//   - Priority shedding: sessions are provisioned with a priority tier.
//     As the backlog climbs, low-priority traffic is shed first, then
//     normal; high-priority traffic is only ever refused by the hard
//     backlog cap or its own deadline.
//   - Brownout: between "shed normal" and "touch high-priority" sits a
//     cheaper rung — sustained backlog flips the shard into brownout, and
//     its sessions play the best-classical strategy without consuming
//     pool pairs or quantum sampling (core.HealthMonitor's load-driven
//     rung). Brownout engages before any high-priority shedding and
//     releases with hysteresis once the backlog drains.
//
// The adaptive concurrency limiter (AIMD on the observed latency gradient)
// lives in limiter.go and gates handler concurrency ahead of the session
// locks; the pipeline order is limiter → deadline gate → session lock.
//
// Everything here is deterministic given its inputs: the controller holds
// no clock — callers pass `now` — and consumes no randomness, so the
// virtual-time loadtest backend can pin overload behavior byte-for-byte.
//
// The package counts nothing. Admit, TryAcquire and Acquire return every
// outcome to the caller, which counts what it is handed (serve's play
// does, into its own server's registry); the state held here — each
// gate's backlog, estimate and brownout flips, the limiter's limit,
// in-flight and queued counts — is read through accessors when someone
// asks.
package admission

import (
	"fmt"
	"sync"
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

	numPriorities
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
	// InitialService seeds the per-shard EWMA estimate of per-round service
	// time. In virtual-time runs the wall clock never advances during a
	// request, measured samples are zero and discarded, and this seed IS
	// the model — making the whole gate a pure function of the arrival
	// plan. Default 50µs.
	InitialService time.Duration
	// EWMAAlpha is the weight of a new service-time sample. Default 0.1.
	EWMAAlpha float64
	// MaxBacklog caps the modeled per-shard queue: requests that would push
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
	// Accepted: the request proceeds to its shard.
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
	// QueueNS is the modeled wait already in the shard's queue ahead of an
	// accepted request (excluding the request's own service time); the
	// server charges it into the response so deadline accounting sees the
	// queueing delay virtual time cannot measure.
	QueueNS int64
	// RetryAfter is the suggested client backoff for a shed request —
	// roughly when the modeled backlog will have drained.
	RetryAfter time.Duration
	// Brownout reports whether the shard is in load-driven brownout; the
	// session then plays the cheap best-classical round.
	Brownout bool
}

// gate is one shard's admission state. The virtual backlog is a Lindley
// recursion: it drains in wall time between arrivals and grows by the
// modeled cost of each accepted request.
type gate struct {
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

// Controller is the per-server admission state: one gate per session shard
// plus one shared concurrency limiter. Admit/Observe are safe for
// concurrent use; determinism is per-gate (each shard's decisions depend
// only on the order of its own arrivals, which the virtual backend fixes).
type Controller struct {
	cfg     Config
	gates   []gate
	limiter *Limiter
}

// NewController builds a controller with one gate per shard.
func NewController(cfg Config, shards int) *Controller {
	cfg = cfg.withDefaults()
	if shards <= 0 {
		shards = 1
	}
	// Gates are indexed with a mask, so the count rounds up to a power of
	// two (the serve shard width already is one).
	for shards&(shards-1) != 0 {
		shards++
	}
	c := &Controller{cfg: cfg, gates: make([]gate, shards), limiter: NewLimiter(cfg.Limiter)}
	for i := range c.gates {
		c.gates[i].est = float64(cfg.InitialService)
	}
	return c
}

// Limiter returns the controller's shared concurrency limiter.
func (c *Controller) Limiter() *Limiter { return c.limiter }

// Shards returns the number of gates.
func (c *Controller) Shards() int { return len(c.gates) }

// Admit gates one request of `rounds` decision rounds for a session on
// `shard` at tier `p`. `deadline` is the request's absolute deadline (zero
// = unstamped → DefaultBudget applies, if configured). The call is
// allocation-free.
func (c *Controller) Admit(shard int, now time.Time, deadline time.Time, p Priority, rounds int) Decision {
	if rounds < 1 {
		rounds = 1
	}
	g := &c.gates[shard&(len(c.gates)-1)]
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
	// rung engages while the shard is refusing work, not only while it is
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

// shedThreshold is the backlog above which tier p sheds. High-priority
// traffic has no tier threshold — only the hard cap and its own deadline.
func (c *Controller) shedThreshold(p Priority) time.Duration {
	switch p {
	case PriorityLow:
		return time.Duration(c.cfg.LowShedFrac * float64(c.cfg.MaxBacklog))
	case PriorityNormal:
		return time.Duration(c.cfg.NormalShedFrac * float64(c.cfg.MaxBacklog))
	}
	return c.cfg.MaxBacklog
}

// Observe feeds a measured per-round wall service time into the shard's
// EWMA estimator. Non-positive samples are discarded — in virtual-time
// runs the clock is frozen during a request, so the estimate stays at its
// InitialService seed and the gate remains a pure function of the plan.
func (c *Controller) Observe(shard int, perRound time.Duration) {
	if perRound <= 0 {
		return
	}
	g := &c.gates[shard&(len(c.gates)-1)]
	g.mu.Lock()
	g.est += c.cfg.EWMAAlpha * (float64(perRound) - g.est)
	g.mu.Unlock()
}

// Backlog returns the shard's current modeled backlog after draining to
// `now` (test/introspection hook; does not mutate the drain clock).
func (c *Controller) Backlog(shard int, now time.Time) time.Duration {
	g := &c.gates[shard&(len(c.gates)-1)]
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

// Brownout reports whether the shard is currently in brownout.
func (c *Controller) Brownout(shard int) bool {
	g := &c.gates[shard&(len(c.gates)-1)]
	g.mu.Lock()
	b := g.brownout
	g.mu.Unlock()
	return b
}

// BrownoutFlips returns how many times the shard has entered and exited
// brownout.
func (c *Controller) BrownoutFlips(shard int) (entered, exited int64) {
	g := &c.gates[shard&(len(c.gates)-1)]
	g.mu.Lock()
	entered, exited = g.entered, g.exited
	g.mu.Unlock()
	return entered, exited
}

// Estimate returns the shard's current per-round service estimate.
func (c *Controller) Estimate(shard int) time.Duration {
	g := &c.gates[shard&(len(c.gates)-1)]
	g.mu.Lock()
	e := time.Duration(g.est)
	g.mu.Unlock()
	return e
}
