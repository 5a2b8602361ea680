package core

import (
	"testing"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
)

const critV = 0.7071067811865476 // 1/√2, the CHSH-critical visibility

func feed(h *HealthMonitor, n int, available bool, vis float64) DegradeLevel {
	l := h.Level()
	for i := 0; i < n; i++ {
		l = h.ObserveAttempt(available, vis)
	}
	return l
}

func TestHealthLadderDegradesImmediately(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, BaseVisibility: 0.98}, critV)
	if h.Level() != DegradeNone {
		t.Fatalf("fresh monitor level = %v", h.Level())
	}
	feed(h, 8, true, 0.97)
	if h.Level() != DegradeNone {
		t.Fatalf("healthy supply degraded to %v", h.Level())
	}
	// Visibility sags below (1−ReoptMargin)·base but stays above critical.
	feed(h, 8, true, 0.85)
	if h.Level() != DegradeReoptimize {
		t.Fatalf("sagging visibility gave %v, want reoptimize", h.Level())
	}
	// Below critical: classical, immediately on the rolling mean crossing.
	feed(h, 8, true, 0.5)
	if h.Level() != DegradeClassical {
		t.Fatalf("sub-critical visibility gave %v, want classical", h.Level())
	}
}

func TestHealthLadderDegradesOnSupplyRate(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 16, BaseVisibility: 0.98}, critV)
	feed(h, 16, true, 0.97)
	// Pairs stop arriving entirely: even though delivered visibility was
	// fine, the supply-rate floor forces classical.
	feed(h, 16, false, 0)
	if h.Level() != DegradeClassical {
		t.Fatalf("starved supply gave %v, want classical", h.Level())
	}
}

func TestHealthLadderRecoveryIsHysteretic(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, BaseVisibility: 0.98, RecoverMargin: 0.02}, critV)
	feed(h, 8, true, 0.5)
	if h.Level() != DegradeClassical {
		t.Fatalf("setup: %v", h.Level())
	}
	// Hovering just over critical: degraded state must hold (hysteresis).
	feed(h, 8, true, critV+0.01)
	if h.Level() != DegradeClassical {
		t.Fatalf("marginal visibility recovered to %v; hysteresis broken", h.Level())
	}
	// Clearing the margin decisively recovers.
	feed(h, 8, true, 0.97)
	if h.Level() != DegradeNone {
		t.Fatalf("full recovery gave %v", h.Level())
	}
	if h.Transitions() < 2 {
		t.Fatalf("transitions = %d", h.Transitions())
	}
}

func TestHealthProbeCadence(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, ProbeEvery: 4, BaseVisibility: 0.98}, critV)
	for round := int64(0); round < 8; round++ {
		if !h.ShouldProbe(round) {
			t.Fatalf("healthy monitor must always attempt (round %d)", round)
		}
	}
	feed(h, 8, false, 0)
	probes := 0
	for round := int64(0); round < 16; round++ {
		if h.ShouldProbe(round) {
			probes++
		}
	}
	if probes != 4 {
		t.Fatalf("degraded monitor probed %d of 16 rounds, want 4", probes)
	}
}

func TestHealthForcePinsLevel(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 4, BaseVisibility: 0.98}, critV)
	h.Force(DegradeRandom)
	feed(h, 8, true, 0.97)
	if h.Level() != DegradeRandom {
		t.Fatalf("forced level drifted to %v", h.Level())
	}
	h.Force(-1)
	feed(h, 1, true, 0.97)
	if h.Level() != DegradeNone {
		t.Fatalf("released monitor stuck at %v", h.Level())
	}
}

func TestDegradeLevelStrings(t *testing.T) {
	want := map[DegradeLevel]string{
		DegradeNone: "quantum", DegradeReoptimize: "reoptimized",
		DegradeClassical: "classical", DegradeRandom: "random",
	}
	for l, s := range want {
		if l.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(l), l.String(), s)
		}
	}
}

// TestResilientSessionLegacyEquivalence: with Health nil the session must
// behave exactly as before — this guards the byte-identical E1–E16 outputs.
func TestResilientSessionLegacyEquivalence(t *testing.T) {
	mk := func(health *HealthConfig) Stats {
		s, err := NewSession(Config{
			Game:     games.NewColocationCHSH(),
			Supplier: entangle.PerfectSupplier{Visibility: 0.95},
			Seed:     42,
			Health:   health,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.PlayReferee(2000, 0, time.Microsecond)
	}
	legacy := mk(nil)
	if legacy.QuantumRounds != legacy.Rounds || legacy.FallbackRounds != 0 {
		t.Fatalf("perfect supply should be all-quantum: %+v", legacy)
	}
	// A resilient session over the same perfect supply stays on the top
	// rung and plays the identical strategy with the identical RNG stream.
	resilient := mk(&HealthConfig{BaseVisibility: 0.95})
	if resilient.Wins.Successes() != legacy.Wins.Successes() {
		t.Fatalf("resilient session diverged on a healthy supply: %d vs %d wins",
			resilient.Wins.Successes(), legacy.Wins.Successes())
	}
	if resilient.LevelRounds[DegradeNone] != resilient.Rounds {
		t.Fatalf("healthy resilient session left the top rung: %+v", resilient.LevelRounds)
	}
}

// TestResilientSessionDegradesToClassicalFloor: with an empty supplier the
// resilient session must play the best classical strategy, not random.
func TestResilientSessionDegradesToClassicalFloor(t *testing.T) {
	game := games.NewColocationCHSH()
	s, err := NewSession(Config{
		Game:     game,
		Supplier: entangle.EmptySupplier{},
		Seed:     7,
		Health:   &HealthConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.PlayReferee(4000, 0, time.Microsecond)
	if st.QuantumRounds != 0 {
		t.Fatalf("empty supplier played %d quantum rounds", st.QuantumRounds)
	}
	if st.LevelRounds[DegradeClassical] != st.Rounds {
		t.Fatalf("level occupancy: %+v", st.LevelRounds)
	}
	// The deterministic classical strategy wins 0.75 ± sampling noise.
	if !st.Wins.Contains95(0.75) {
		t.Fatalf("classical floor missed: rate %.4f", st.Wins.Rate())
	}
}

// TestSessionRetryCatchesInFlightPair: a round arriving while the pair is
// still in the fiber waits (bounded) and then plays quantum.
func TestSessionRetryCatchesInFlightPair(t *testing.T) {
	engine := &netsim.Engine{}
	q := entangle.DefaultQNIC()
	pool := entangle.NewPool(q, 0)
	game := games.NewColocationCHSH()
	s, err := NewSession(Config{
		Game:     game,
		Supplier: pool,
		QNIC:     q,
		Seed:     3,
		Health:   &HealthConfig{},
		Engine:   engine,
		Retry:    RetryPolicy{MaxWait: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A pair lands at t=6µs — scheduled, not yet delivered.
	engine.Schedule(6*time.Microsecond, func() {
		pool.Add(entangle.Pair{ArrivedAt: engine.Now(), V0: 0.98})
	})
	d := s.Round(0, 0, 0)
	if d.Mode != ModeQuantum {
		t.Fatalf("round did not catch the in-flight pair: %+v", d)
	}
	if d.Waited == 0 || d.Waited > 10*time.Microsecond {
		t.Fatalf("waited %v, want in (0, 10µs]", d.Waited)
	}
	st := s.Stats()
	if st.Retries == 0 || st.Waited != d.Waited {
		t.Fatalf("retry accounting: %+v", st)
	}

	// With nothing in flight the wait gives up at MaxWait and falls back.
	d2 := s.Round(engine.Now(), 0, 0)
	if d2.Mode != ModeFallback {
		t.Fatalf("dry retry should fall back: %+v", d2)
	}
	if d2.Waited != 10*time.Microsecond {
		t.Fatalf("dry retry waited %v, want full 10µs budget", d2.Waited)
	}
}

// TestSessionReoptimizeRungPlaysValidStrategy: force the sag regime and
// check the re-optimized rung still wins well above classical.
func TestSessionReoptimizeRungPlaysValidStrategy(t *testing.T) {
	game := games.NewColocationCHSH()
	// Visibility 0.85: above critical (0.707) but sagging well below the
	// 0.98 baseline — the monitor settles on DegradeReoptimize.
	s, err := NewSession(Config{
		Game:     game,
		Supplier: entangle.PerfectSupplier{Visibility: 0.85},
		Seed:     11,
		Health:   &HealthConfig{BaseVisibility: 0.98},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.PlayReferee(6000, 0, time.Microsecond)
	if st.LevelRounds[DegradeReoptimize] == 0 {
		t.Fatalf("sagging visibility never reached the reoptimize rung: %+v", st.LevelRounds)
	}
	// Expected value at V=0.85: 0.85·q + 0.15/2 ≈ 0.80 — above classical.
	if st.Wins.Rate() < 0.76 {
		t.Fatalf("reoptimized play win rate %.4f not above the classical floor", st.Wins.Rate())
	}
}

// TestBrownoutClampsEffectiveLevel: the load-driven rung composes with the
// visibility ladder by max — a healthy session reads classical while
// browned out, an already-degraded one is unchanged, and each effective
// change counts as a transition.
func TestBrownoutClampsEffectiveLevel(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, BaseVisibility: 0.98}, critV)
	feed(h, 8, true, 0.97)
	if h.Level() != DegradeNone {
		t.Fatalf("setup: %v", h.Level())
	}

	h.SetBrownout(true)
	if !h.Brownout() || h.Level() != DegradeClassical {
		t.Fatalf("brownout on: level %v, want classical", h.Level())
	}
	if h.Transitions() != 1 {
		t.Fatalf("transitions after brownout = %d, want 1", h.Transitions())
	}
	// Idempotent: re-engaging is a no-op.
	h.SetBrownout(true)
	if h.Transitions() != 1 {
		t.Fatalf("re-engage counted a transition: %d", h.Transitions())
	}

	// The visibility ladder keeps evolving underneath; recovery observed
	// while browned out does not lift the clamp.
	feed(h, 8, true, 0.97)
	if h.Level() != DegradeClassical {
		t.Fatalf("brownout released by healthy supply: %v", h.Level())
	}

	h.SetBrownout(false)
	if h.Level() != DegradeNone {
		t.Fatalf("brownout off: level %v, want quantum", h.Level())
	}
	if h.Transitions() != 2 {
		t.Fatalf("transitions after release = %d, want 2", h.Transitions())
	}
}

// TestBrownoutComposesWithDegradedLadder: when the visibility ladder is
// already at classical or worse, the brownout flip changes nothing
// effective and therefore counts no transition; releasing brownout while
// the supply is still bad keeps the session classical (never skips down).
func TestBrownoutComposesWithDegradedLadder(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, BaseVisibility: 0.98}, critV)
	feed(h, 8, true, 0.5) // sub-critical: ladder at classical
	base := h.Transitions()

	h.SetBrownout(true)
	if h.Level() != DegradeClassical || h.Transitions() != base {
		t.Fatalf("brownout over classical: level %v transitions %d (base %d)",
			h.Level(), h.Transitions(), base)
	}
	h.SetBrownout(false)
	if h.Level() != DegradeClassical || h.Transitions() != base {
		t.Fatalf("release over classical: level %v transitions %d", h.Level(), h.Transitions())
	}

	// Forced random (dead monitor) outranks brownout's classical clamp.
	h.Force(DegradeRandom)
	h.SetBrownout(true)
	if h.Level() != DegradeRandom {
		t.Fatalf("brownout demoted forced random to %v", h.Level())
	}
	h.SetBrownout(false)
}

// TestBrownoutThrottlesProbing: while browned out, a session probes at the
// degraded cadence even if the underlying ladder is healthy — overload is
// exactly when per-round supply probes should stop.
func TestBrownoutThrottlesProbing(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, ProbeEvery: 4, BaseVisibility: 0.98}, critV)
	feed(h, 8, true, 0.97)
	h.SetBrownout(true)
	probes := 0
	for round := int64(0); round < 16; round++ {
		if h.ShouldProbe(round) {
			probes++
		}
	}
	if probes != 4 {
		t.Fatalf("browned-out monitor probed %d of 16 rounds, want 4", probes)
	}
}

// TestGaugesArePublishedNotObserved pins what HealthConfig.MetricsName
// promises: attempts move the monitor, and the gauges follow at the next
// Publish (or at once for SetBrownout and Force, which publish themselves).
func TestGaugesArePublishedNotObserved(t *testing.T) {
	h := NewHealthMonitor(HealthConfig{Window: 8, BaseVisibility: 0.98, MetricsName: "t-publish"}, critV)
	agree := func() bool {
		return h.mVis.Value() == h.Visibility() && h.mSupply.Value() == h.SupplyRate() &&
			h.mLevel.Value() == float64(h.Level())
	}
	feed(h, 8, true, 0.5) // sub-critical: the monitor steps down to classical
	if h.Level() != DegradeClassical || agree() {
		t.Fatalf("attempts alone must not write the gauges (level %v, gauge %v)", h.Level(), h.mLevel.Value())
	}
	h.Publish()
	if !agree() {
		t.Fatal("Publish left the gauges behind the monitor")
	}
	h.Force(DegradeRandom)
	if !agree() {
		t.Fatal("Force must publish the level it pins")
	}
	h.Force(-1)
	feed(h, 8, true, 0.97)
	h.SetBrownout(true)
	if h.Level() != DegradeClassical || !agree() {
		t.Fatalf("SetBrownout must publish the clamp and what was pending (level %v)", h.Level())
	}
}
