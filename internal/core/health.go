package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Graceful degradation: when the entanglement supply chain falters — the
// source drops out, fiber loss spikes, QNIC coherence collapses — a session
// must not fall off a cliff. It steps down a ladder of strategies, each rung
// cheaper and more robust than the last, and climbs back up only once the
// supply has demonstrably recovered:
//
//	DegradeNone        → play the noiseless-optimal quantum angles
//	DegradeReoptimize  → re-optimize measurements for the measured visibility
//	DegradeClassical   → best deterministic classical pair strategy
//	DegradeRandom      → independent uniform answers (supply monitor dead)
//
// The ladder's load-bearing threshold is the CHSH-critical visibility
// V* = 1/√2: above it quantum play beats the classical floor, below it the
// classical fallback is strictly better. Transitions are hysteretic —
// degrading is immediate, recovering requires clearing the threshold by a
// margin — so a supply hovering at V* doesn't thrash between strategies.

// DegradeLevel is a rung of the degradation ladder. Higher is worse.
type DegradeLevel int

const (
	// DegradeNone: healthy supply; play the optimal quantum strategy.
	DegradeNone DegradeLevel = iota
	// DegradeReoptimize: visibility sagging but still above critical;
	// re-optimize the measurement operators for the measured noise.
	DegradeReoptimize
	// DegradeClassical: visibility below critical or supply rate too low;
	// play the best classical pair strategy (the 0.75 floor for CHSH).
	DegradeClassical
	// DegradeRandom: no usable health signal at all; answer uniformly at
	// random. Only reachable by Force — the monitor itself never chooses
	// to do worse than classical.
	DegradeRandom

	numLevels
)

// NumLevels is the number of ladder rungs.
const NumLevels = int(numLevels)

// String names the level.
func (l DegradeLevel) String() string {
	switch l {
	case DegradeNone:
		return "quantum"
	case DegradeReoptimize:
		return "reoptimized"
	case DegradeClassical:
		return "classical"
	case DegradeRandom:
		return "random"
	}
	return fmt.Sprintf("DegradeLevel(%d)", int(l))
}

// HealthConfig tunes the session's health monitor. The zero value is usable:
// withDefaults fills every field.
type HealthConfig struct {
	// Window is the number of recent rounds over which visibility and
	// supply rate are averaged. Default 64.
	Window int
	// ReoptMargin: degrade from None to Reoptimize when rolling visibility
	// falls below (1 − ReoptMargin) of the supplier's base visibility —
	// i.e. a relative sag — while still above critical. Default 0.05.
	ReoptMargin float64
	// RecoverMargin is the hysteresis band: to climb a rung, the rolling
	// visibility must clear that rung's threshold by this margin.
	// Default 0.02.
	RecoverMargin float64
	// MinSupplyRate is the minimum rolling fraction of rounds with a pair
	// available below which the session degrades to classical regardless
	// of visibility (paying see-saw re-optimization for 1 round in 20 is
	// pure overhead). Default 0.05.
	MinSupplyRate float64
	// ProbeEvery: while degraded to classical, still attempt to consume a
	// pair every ProbeEvery-th round so the monitor can observe recovery.
	// Default 8.
	ProbeEvery int
	// BaseVisibility is the supply's nominal (healthy) visibility, used as
	// the DegradeNone reference. Default 1.
	BaseVisibility float64
	// MetricsName, when non-empty, labels session gauges in the default
	// metrics registry (session_visibility{session=...} etc.). The gauges
	// are a published copy of the monitor: Publish, SetBrownout and Force
	// write them, ObserveAttempt does not. Whoever serializes access to the
	// session calls Publish before letting go, so no reader sees gauges
	// older than the last finished request. serve leaves it empty: a
	// session's health is its info route's to report.
	MetricsName string
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.ReoptMargin == 0 {
		c.ReoptMargin = 0.05
	}
	if c.RecoverMargin == 0 {
		c.RecoverMargin = 0.02
	}
	if c.MinSupplyRate == 0 {
		c.MinSupplyRate = 0.05
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 8
	}
	if c.BaseVisibility == 0 {
		c.BaseVisibility = 1
	}
	return c
}

// RetryPolicy bounds how long a round may wait for an in-flight pair before
// falling back. Zero value = never wait.
type RetryPolicy struct {
	// MaxWait is the total simulated-time budget a round may spend waiting
	// for the pool to fill before giving up.
	MaxWait time.Duration
	// Backoff is the first wait step; each subsequent step doubles. Default
	// (when MaxWait > 0): MaxWait/8.
	Backoff time.Duration
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxWait > 0 && r.Backoff <= 0 {
		r.Backoff = r.MaxWait / 8
		if r.Backoff <= 0 {
			r.Backoff = 1
		}
	}
	return r
}

// HealthMonitor tracks rolling delivered visibility and supply rate and maps
// them onto the degradation ladder with hysteresis. It is pure bookkeeping:
// it consumes no randomness and never touches the engine.
type HealthMonitor struct {
	cfg    HealthConfig
	vis    *stats.Rolling // visibility of delivered pairs
	supply *stats.Rolling // 1 if a pair was available this attempt, else 0

	level  DegradeLevel
	forced bool
	// brownout is the load-driven rung: while set, the effective level is
	// clamped to at least DegradeClassical regardless of what the
	// visibility ladder says. It composes with (never replaces) the
	// visibility-driven level — Level() reports the max of the two — so
	// an overloaded session with a dead supply still reads as whatever
	// the ladder chose, and a healthy one reads classical until the load
	// drains.
	brownout bool

	critVisibility float64

	transitions int64
	// stale is set by whatever can move what the gauges show and cleared by
	// Publish, so publishing after a request that observed nothing (a
	// non-probing classical round, a brownout batch) stores nothing.
	stale bool

	mVis    *metrics.Gauge
	mSupply *metrics.Gauge
	mLevel  *metrics.Gauge
	mTrans  *metrics.Counter
}

// NewHealthMonitor builds a monitor for a session whose quantum-vs-classical
// break-even sits at critVisibility.
func NewHealthMonitor(cfg HealthConfig, critVisibility float64) *HealthMonitor {
	cfg = cfg.withDefaults()
	h := &HealthMonitor{
		cfg:            cfg,
		vis:            stats.NewRolling(cfg.Window),
		supply:         stats.NewRolling(cfg.Window),
		critVisibility: critVisibility,
	}
	if cfg.MetricsName != "" {
		reg := metrics.Default()
		h.mVis = reg.Gauge(metrics.Key("session_visibility", "session", cfg.MetricsName))
		h.mSupply = reg.Gauge(metrics.Key("session_supply_rate", "session", cfg.MetricsName))
		h.mLevel = reg.Gauge(metrics.Key("session_degrade_level", "session", cfg.MetricsName))
		h.mTrans = reg.Counter(metrics.Key("session_level_transitions_total", "session", cfg.MetricsName))
	}
	return h
}

// ObserveAttempt records one consumption attempt: whether a pair was
// available, and (if so) its delivered visibility. It then re-evaluates the
// ladder and returns the current level. It does not touch the gauges: a
// batch observes many attempts and publishes once (see Publish).
func (h *HealthMonitor) ObserveAttempt(available bool, visibility float64) DegradeLevel {
	if available {
		h.supply.Add(1)
		h.vis.Add(visibility)
	} else {
		h.supply.Add(0)
	}
	h.stale = true
	h.evaluate()
	return h.Level()
}

// targetLevel maps the rolling signals to a rung, requiring each healthy
// threshold to be cleared by `margin` (0 for degrading, RecoverMargin for
// recovering — the hysteresis asymmetry).
func (h *HealthMonitor) targetLevel(margin float64) DegradeLevel {
	// No delivered pairs observed at all: without a visibility signal the
	// only safe rung is classical.
	if h.vis.Count() == 0 {
		return DegradeClassical
	}
	v := h.vis.Mean()
	if h.supply.Mean() < h.cfg.MinSupplyRate+margin {
		return DegradeClassical
	}
	if v <= h.critVisibility+margin {
		return DegradeClassical
	}
	if v < (1-h.cfg.ReoptMargin)*h.cfg.BaseVisibility-margin {
		return DegradeReoptimize
	}
	return DegradeNone
}

// evaluate applies the hysteresis rule: degrade immediately, recover only
// when the margin-tightened target is strictly better than the current rung.
func (h *HealthMonitor) evaluate() {
	if h.forced {
		return
	}
	raw := h.targetLevel(0)
	if raw > h.level {
		h.setLevel(raw)
		return
	}
	if rec := h.targetLevel(h.cfg.RecoverMargin); rec < h.level {
		h.setLevel(rec)
	}
}

func (h *HealthMonitor) setLevel(l DegradeLevel) {
	if l == h.level {
		return
	}
	h.level = l
	h.transitions++
	if h.mTrans != nil {
		h.mTrans.Inc()
	}
}

// Publish copies the monitor's rolling visibility, supply rate and effective
// level into the session gauges — a no-op without HealthConfig.MetricsName,
// or when nothing has moved them since they were last written.
func (h *HealthMonitor) Publish() {
	if h.mVis == nil || !h.stale {
		return
	}
	h.stale = false
	h.mVis.Set(h.vis.Mean())
	h.mSupply.Set(h.supply.Mean())
	h.mLevel.Set(float64(h.Level()))
}

// Level returns the current effective ladder rung: the visibility-driven
// rung, clamped to at least DegradeClassical while brownout is engaged.
func (h *HealthMonitor) Level() DegradeLevel {
	if h.brownout && h.level < DegradeClassical {
		return DegradeClassical
	}
	return h.level
}

// SetBrownout engages or releases the load-driven brownout rung. It is a
// no-op when the flag is unchanged; when the flip changes the effective
// level, it counts as a ladder transition like any other.
func (h *HealthMonitor) SetBrownout(on bool) {
	if h.brownout == on {
		return
	}
	before := h.Level()
	h.brownout, h.stale = on, true
	if h.Level() != before {
		h.transitions++
		if h.mTrans != nil {
			h.mTrans.Inc()
		}
	}
	h.Publish()
}

// Brownout reports whether the load-driven brownout rung is engaged.
func (h *HealthMonitor) Brownout() bool { return h.brownout }

// Visibility returns the rolling mean delivered visibility.
func (h *HealthMonitor) Visibility() float64 { return h.vis.Mean() }

// SupplyRate returns the rolling fraction of attempts that found a pair.
func (h *HealthMonitor) SupplyRate() float64 { return h.supply.Mean() }

// Transitions returns how many level changes have occurred.
func (h *HealthMonitor) Transitions() int64 { return h.transitions }

// ShouldProbe reports whether a classical-degraded session should still
// attempt consumption this round (round counter kept by the caller) so the
// monitor can see the supply recover.
func (h *HealthMonitor) ShouldProbe(round int64) bool {
	if h.Level() < DegradeClassical {
		return true
	}
	return round%int64(h.cfg.ProbeEvery) == 0
}

// Force pins the monitor to a level, disabling automatic transitions
// (operator override, or DegradeRandom for a dead monitor). Force(-1)
// releases the pin.
func (h *HealthMonitor) Force(l DegradeLevel) {
	h.stale = true
	if l < 0 {
		h.forced = false
		h.evaluate()
		return
	}
	h.forced = true
	h.setLevel(l)
	h.Publish()
}
