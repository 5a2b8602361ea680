// Package core packages the paper's contribution as the system-level
// abstraction its conclusion calls for: "primitives … packaged in
// system-level abstractions that systems designers can adopt without
// needing to understand the underlying quantum mechanics."
//
// A Session binds together
//
//   - a non-local game (the coordination objective — e.g. the colocation
//     CHSH game for affinity-aware load balancing),
//   - an entanglement Supplier (the Figure 1 substrate: SPDC source, fiber,
//     QNIC pools), and
//   - a classical fallback strategy,
//
// and then answers one question per round: given the two parties' local
// inputs, what should each decide *right now*, with zero communication?
// When the supply is dry, or so noisy that the quantum strategy would lose
// to the best classical one, the session transparently falls back —
// correlation quality degrades, correctness and latency never do.
package core

import (
	"fmt"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Config assembles a Session.
type Config struct {
	// Game is the coordination objective. Required.
	Game *games.XORGame
	// Supplier provides entangled pairs. Required (use
	// entangle.PerfectSupplier for idealized studies).
	Supplier entangle.Supplier
	// QNIC models decision latency; zero value means instantaneous
	// measurement.
	QNIC entangle.QNICConfig
	// Seed drives all of the session's randomness.
	Seed uint64

	// Health, when non-nil, enables the graceful-degradation ladder: a
	// HealthMonitor tracks rolling delivered visibility and supply rate and
	// the session steps between quantum, re-optimized-quantum, classical
	// and random strategies with hysteresis. Nil preserves the original
	// two-mode (quantum/fallback) behavior exactly.
	Health *HealthConfig
	// Engine, when set together with Retry.MaxWait, lets a round wait a
	// bounded simulated time for an in-flight pair (engine.RunUntil) before
	// falling back. The session must then be driven from OUTSIDE engine
	// callbacks (advance the engine to `now`, then call Round).
	Engine *netsim.Engine
	// Retry bounds the in-round wait for pool refill. Zero = never wait.
	Retry RetryPolicy
}

// Mode records how a round was decided.
type Mode int

const (
	// ModeQuantum means an entangled pair was consumed.
	ModeQuantum Mode = iota
	// ModeFallback means the classical fallback answered (pool dry or
	// visibility below the advantage threshold).
	ModeFallback
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeQuantum {
		return "quantum"
	}
	return "fallback"
}

// Decision is the outcome of one coordination round.
type Decision struct {
	A, B       int
	Mode       Mode
	Visibility float64 // pair visibility used (0 in fallback mode)
	// Latency is the local decision latency: QNIC measurement time for
	// quantum rounds, ~0 for the classical fallback. Crucially it never
	// includes a network round trip — that is the paper's whole point
	// (Figure 2).
	Latency time.Duration
	// Level is the degradation-ladder rung the round was played at
	// (always DegradeNone/DegradeClassical in legacy two-mode sessions).
	Level DegradeLevel
	// Waited is the simulated time spent waiting for an in-flight pair
	// before this round's strategy was chosen (0 unless Retry is set).
	Waited time.Duration
	// Win reports whether the answers (A, B) win the game on the round's
	// inputs, as the session's win statistics counted it.
	Win bool
}

// Stats aggregates a session's history.
type Stats struct {
	Rounds         int64
	QuantumRounds  int64
	FallbackRounds int64
	// Wins tracks game-win rate over all rounds.
	Wins stats.Proportion
	// Visibility tracks consumed pairs' visibility.
	Visibility stats.Welford
	// LevelRounds counts rounds played at each degradation rung (resilient
	// sessions only; legacy sessions fold into None/Classical).
	LevelRounds [NumLevels]int64
	// Retries counts in-round waits for pool refill; Waited totals the
	// simulated time they consumed.
	Retries int64
	Waited  time.Duration
}

// Session coordinates two parties through a shared game and entanglement
// supply. Sessions are not safe for concurrent use; the simulations that
// drive them are single-threaded and deterministic.
type Session struct {
	cfg      Config
	rng      *xrand.RNG
	quantum  *games.XORQuantumSampler
	fallback games.JointSampler
	// critVisibility is the visibility below which the quantum strategy no
	// longer beats the classical fallback; the session then prefers the
	// fallback even when a pair is available.
	critVisibility float64
	classicalValue float64
	quantumValue   float64
	st             Stats

	// Resilient-session state (nil/zero in legacy two-mode sessions).
	health *HealthMonitor
	retry  RetryPolicy
	// seesawRNG feeds re-optimization see-saws so strategy synthesis never
	// perturbs the round stream.
	seesawRNG *xrand.RNG
	// reopt caches re-optimized samplers by visibility bucket (see-saws are
	// ~10⁴ flops; visibilities within a bucket share a strategy).
	reopt map[int]games.JointSampler
}

// reoptBucket quantizes visibility for the re-optimized-sampler cache.
const reoptBucket = 0.02

// NewSession computes the game's optimal quantum and classical strategies
// and returns a ready session.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Game == nil {
		return nil, fmt.Errorf("core: Config.Game is required")
	}
	if err := cfg.Game.Validate(); err != nil {
		return nil, err
	}
	if cfg.Supplier == nil {
		return nil, fmt.Errorf("core: Config.Supplier is required")
	}
	rng := xrand.New(cfg.Seed, 0xc0de)
	c := cfg.Game.ClassicalValue()
	q := cfg.Game.QuantumValue(rng)
	s := &Session{
		cfg:            cfg,
		rng:            rng,
		quantum:        q.QuantumSampler(1.0),
		fallback:       &games.DeterministicSampler{A: c.A, B: c.B},
		critVisibility: CriticalVisibility(c.Value, q.Value),
		classicalValue: c.Value,
		quantumValue:   q.Value,
	}
	if cfg.Health != nil {
		hc := *cfg.Health
		s.health = NewHealthMonitor(hc, s.critVisibility)
		s.retry = cfg.Retry.withDefaults()
		s.seesawRNG = xrand.New(cfg.Seed, 0x5ee5a)
		s.reopt = make(map[int]games.JointSampler)
	}
	return s, nil
}

// Health returns the session's health monitor (nil for legacy sessions).
func (s *Session) Health() *HealthMonitor { return s.health }

// CriticalVisibility returns the Werner visibility V* at which a quantum
// strategy with noiseless value q degrades to the classical value c:
// V·q + (1−V)/2 = c ⇒ V* = (c − ½)/(q − ½). For CHSH this is 1/√2 ≈ 0.707.
// If the game has no quantum advantage (q ≤ c), it returns 1 — the session
// will always prefer the classical strategy.
func CriticalVisibility(classical, quantum float64) float64 {
	if quantum <= classical {
		return 1
	}
	return (classical - 0.5) / (quantum - 0.5)
}

// ClassicalValue returns the game's exact classical value.
func (s *Session) ClassicalValue() float64 { return s.classicalValue }

// QuantumValue returns the game's exact quantum value.
func (s *Session) QuantumValue() float64 { return s.quantumValue }

// CriticalVis returns the session's fallback threshold.
func (s *Session) CriticalVis() float64 { return s.critVisibility }

// Round coordinates one decision at simulated time now with party inputs x
// and y. Each party's answer depends only on its own input and the shared
// (pre-distributed) resources — the joint sampling here is the testbed
// shortcut the paper's conclusion licenses for controlled studies.
func (s *Session) Round(now time.Duration, x, y int) (d Decision) {
	if s.health != nil {
		s.resilientRound(&d, now, x, y)
		return d
	}
	s.st.Rounds++
	if vis, ok := s.cfg.Supplier.TryConsume(now); ok && vis > s.critVisibility {
		s.quantum.Visibility = vis
		a, b := s.quantum.Sample(x, y, s.rng)
		d = Decision{A: a, B: b, Mode: ModeQuantum, Visibility: vis, Latency: s.cfg.QNIC.MeasureLatency}
		s.st.QuantumRounds++
		s.st.Visibility.Add(vis)
	} else {
		a, b := s.fallback.Sample(x, y, s.rng)
		d = Decision{A: a, B: b, Mode: ModeFallback, Level: DegradeClassical}
		s.st.FallbackRounds++
	}
	d.Win = s.cfg.Game.Wins(x, y, d.A, d.B)
	s.st.Wins.Add(d.Win)
	return d
}

// resilientRound is the graceful-degradation round: probe-gated consumption,
// bounded retry for in-flight pairs, and strategy selection by the health
// monitor's ladder rung. It builds the decision in the caller's zeroed *d
// instead of returning it: the seven-word struct is then written once, in
// Round's result, rather than copied out of two frames on every round.
func (s *Session) resilientRound(d *Decision, now time.Duration, x, y int) {
	s.st.Rounds++

	vis, ok := 0.0, false
	attempted := s.health.ShouldProbe(s.st.Rounds - 1)
	if attempted {
		vis, ok = s.cfg.Supplier.TryConsume(now)
		if !ok && s.retry.MaxWait > 0 && s.cfg.Engine != nil && s.health.Level() <= DegradeReoptimize {
			// A pair may already be in flight down the fiber. Wait with
			// exponential backoff, bounded by MaxWait, advancing the engine
			// so scheduled deliveries can land.
			deadline := now + s.retry.MaxWait
			for wait := s.retry.Backoff; now < deadline && !ok; wait *= 2 {
				step := min(wait, deadline-now)
				now += step
				d.Waited += step
				s.st.Retries++
				s.cfg.Engine.RunUntil(now)
				vis, ok = s.cfg.Supplier.TryConsume(now)
			}
			s.st.Waited += d.Waited
		}
	}

	level := s.health.Level()
	if attempted {
		level = s.health.ObserveAttempt(ok, vis)
	}
	// The monitor's rung is a supply judgment; the round in hand still
	// plays quantum only if it actually holds a usable pair.
	playQuantum := ok && vis > s.critVisibility && level <= DegradeReoptimize

	switch {
	case playQuantum && level == DegradeNone:
		s.quantum.Visibility = vis
		a, b := s.quantum.Sample(x, y, s.rng)
		d.A, d.B = a, b
		d.Mode, d.Visibility, d.Latency = ModeQuantum, vis, s.cfg.QNIC.MeasureLatency
		s.st.QuantumRounds++
		s.st.Visibility.Add(vis)
	case playQuantum: // DegradeReoptimize
		a, b := s.reoptSampler(s.health.Visibility()).Sample(x, y, s.rng)
		d.A, d.B = a, b
		d.Mode, d.Visibility, d.Latency = ModeQuantum, vis, s.cfg.QNIC.MeasureLatency
		s.st.QuantumRounds++
		s.st.Visibility.Add(vis)
	case level == DegradeRandom:
		d.A, d.B = s.rng.IntN(2), s.rng.IntN(2)
		d.Mode = ModeFallback
		s.st.FallbackRounds++
	default:
		a, b := s.fallback.Sample(x, y, s.rng)
		d.A, d.B = a, b
		d.Mode = ModeFallback
		s.st.FallbackRounds++
	}
	if d.Mode == ModeQuantum {
		d.Level = level
	} else if level < DegradeClassical {
		d.Level = DegradeClassical // pool dry at a healthy rung: classical round
	} else {
		d.Level = level
	}
	s.st.LevelRounds[d.Level]++
	d.Win = s.cfg.Game.Wins(x, y, d.A, d.B)
	s.st.Wins.Add(d.Win)
}

// BrownoutRound plays one round at the load-driven brownout rung: the best
// classical pair strategy, with no supply probe, no pool consumption, no
// quantum sampling and no engine catch-up — the cheapest correct answer
// the session can give. The serving layer calls it instead of Round while
// admission control has the session's shard in brownout, so sustained
// overload degrades compute cost before any high-priority shedding.
// Consuming only the fallback sampler's randomness keeps it on the same
// round RNG stream as a classical Round, and the health monitor is left
// untouched (no probe happened, so there is nothing to observe).
func (s *Session) BrownoutRound(x, y int) Decision {
	s.st.Rounds++
	a, b := s.fallback.Sample(x, y, s.rng)
	d := Decision{A: a, B: b, Mode: ModeFallback, Level: DegradeClassical, Win: s.cfg.Game.Wins(x, y, a, b)}
	s.st.FallbackRounds++
	s.st.LevelRounds[DegradeClassical]++
	s.st.Wins.Add(d.Win)
	return d
}

// reoptSampler returns the cached re-optimized strategy for the visibility's
// bucket, synthesizing it on first use.
func (s *Session) reoptSampler(v float64) games.JointSampler {
	b := int(v / reoptBucket)
	if sp, ok := s.reopt[b]; ok {
		return sp
	}
	center := (float64(b) + 0.5) * reoptBucket
	sp, _ := games.ReoptimizedSampler(s.cfg.Game, center, s.seesawRNG)
	s.reopt[b] = sp
	return sp
}

// PlayReferee drives `rounds` full game rounds with referee-drawn inputs at
// a fixed simulated time step per round, returning the final stats — the
// quickest way to validate a deployment's effective win rate.
func (s *Session) PlayReferee(rounds int, start, step time.Duration) Stats {
	now := start
	for i := 0; i < rounds; i++ {
		x, y := s.cfg.Game.SampleInput(s.rng)
		s.Round(now, x, y)
		now += step
	}
	return s.st
}

// Stats returns the session's accumulated statistics.
func (s *Session) Stats() Stats { return s.st }

// ExpectedWinRate predicts the session's long-run win rate given the
// fraction of rounds served quantum at mean visibility v̄:
// f·(v̄·q + (1−v̄)/2) + (1−f)·c. Used to cross-check measurements.
func (s *Session) ExpectedWinRate(quantumFraction, meanVisibility float64) float64 {
	qv := meanVisibility*s.quantumValue + (1-meanVisibility)/2
	return quantumFraction*qv + (1-quantumFraction)*s.classicalValue
}
