package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(Config{}); err == nil {
		t.Fatal("expected error for missing game")
	}
	if _, err := NewSession(Config{Game: games.NewCHSH()}); err == nil {
		t.Fatal("expected error for missing supplier")
	}
	s, err := NewSession(Config{Game: games.NewCHSH(), Supplier: entangle.PerfectSupplier{Visibility: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ClassicalValue()-0.75) > 1e-9 {
		t.Fatalf("classical value %v", s.ClassicalValue())
	}
	if math.Abs(s.QuantumValue()-0.8535533905932737) > 1e-6 {
		t.Fatalf("quantum value %v", s.QuantumValue())
	}
}

func TestCriticalVisibility(t *testing.T) {
	// CHSH: V* = (0.75 − 0.5)/(cos²(π/8) − 0.5) = 1/√2.
	v := CriticalVisibility(0.75, 0.8535533905932737)
	if math.Abs(v-1/math.Sqrt2) > 1e-9 {
		t.Fatalf("critical visibility %v, want 1/√2", v)
	}
	// No quantum advantage → always classical.
	if CriticalVisibility(0.8, 0.8) != 1 {
		t.Fatal("no-advantage game should return 1")
	}
}

func TestSessionQuantumWinRate(t *testing.T) {
	s, err := NewSession(Config{
		Game:     games.NewColocationCHSH(),
		Supplier: entangle.PerfectSupplier{Visibility: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.PlayReferee(200000, 0, time.Microsecond)
	if st.QuantumRounds != st.Rounds {
		t.Fatalf("perfect supplier should serve every round: %d/%d", st.QuantumRounds, st.Rounds)
	}
	if !st.Wins.Contains95(0.8535533905932737) {
		lo, hi := st.Wins.Wilson95()
		t.Fatalf("win rate %v [%v,%v] excludes cos²(π/8)", st.Wins.Rate(), lo, hi)
	}
}

func TestSessionFallbackWhenDry(t *testing.T) {
	s, err := NewSession(Config{
		Game:     games.NewColocationCHSH(),
		Supplier: entangle.EmptySupplier{},
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.PlayReferee(100000, 0, time.Microsecond)
	if st.FallbackRounds != st.Rounds {
		t.Fatal("empty supplier must always fall back")
	}
	if !st.Wins.Contains95(0.75) {
		t.Fatalf("fallback win rate %v, want 0.75", st.Wins.Rate())
	}
}

func TestSessionRejectsSubCriticalVisibility(t *testing.T) {
	// Supplier offers pairs below the critical visibility: the session must
	// prefer its classical fallback (which wins 0.75 > the noisy quantum
	// rate).
	s, err := NewSession(Config{
		Game:     games.NewColocationCHSH(),
		Supplier: entangle.PerfectSupplier{Visibility: 0.6}, // < 1/√2
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.PlayReferee(100000, 0, time.Microsecond)
	if st.QuantumRounds != 0 {
		t.Fatalf("sub-critical pairs should be refused: %d quantum rounds", st.QuantumRounds)
	}
	if !st.Wins.Contains95(0.75) {
		t.Fatalf("win rate %v, want classical 0.75", st.Wins.Rate())
	}
}

func TestSessionLatencyAccounting(t *testing.T) {
	qnic := entangle.DefaultQNIC()
	s, err := NewSession(Config{
		Game:     games.NewCHSH(),
		Supplier: entangle.PerfectSupplier{Visibility: 1},
		QNIC:     qnic,
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Round(0, 0, 0)
	if d.Mode != ModeQuantum {
		t.Fatal("expected quantum round")
	}
	if d.Latency != qnic.MeasureLatency {
		t.Fatalf("latency %v, want %v", d.Latency, qnic.MeasureLatency)
	}
	if d.Mode.String() != "quantum" || ModeFallback.String() != "fallback" {
		t.Fatal("mode names wrong")
	}
}

func TestExpectedWinRate(t *testing.T) {
	s, _ := NewSession(Config{Game: games.NewCHSH(), Supplier: entangle.PerfectSupplier{Visibility: 1}})
	// All quantum at V=1: the quantum value.
	if math.Abs(s.ExpectedWinRate(1, 1)-s.QuantumValue()) > 1e-9 {
		t.Fatal("expected win rate at f=1,V=1 should be the quantum value")
	}
	// All fallback: the classical value.
	if math.Abs(s.ExpectedWinRate(0, 1)-s.ClassicalValue()) > 1e-9 {
		t.Fatal("expected win rate at f=0 should be the classical value")
	}
}

func TestRunTimingParetoFrontier(t *testing.T) {
	cfg := DefaultTimingConfig()
	cfg.Rounds = 4000
	rows := RunTiming(cfg)
	if len(rows) != 3 {
		t.Fatalf("want 3 architectures, got %d", len(rows))
	}
	var local, quantum, coord TimingResult
	for _, r := range rows {
		switch r.Architecture {
		case "local-classical":
			local = r
		case "quantum-pre-shared":
			quantum = r
		case "coordinated-classical":
			coord = r
		}
	}
	// Latency ordering: local ≈ 0 ≤ quantum (µs) ≪ coordinated (≥ RTT = 1ms).
	if local.Latency.Mean() != 0 {
		t.Fatalf("local latency %v", local.Latency.Mean())
	}
	if quantum.Latency.Mean() <= 0 || quantum.Latency.Mean() > 10e-6 {
		t.Fatalf("quantum latency %v s, want ~1µs", quantum.Latency.Mean())
	}
	// Every coordinated decision costs exactly one fiber round trip.
	rtt := (2 * netsim.PropagationDelay(cfg.DistanceM)).Seconds()
	if l := &coord.Latency; l.Count() != int64(cfg.Rounds) || l.Min() != rtt || l.Max() != rtt || l.Mean() != rtt {
		t.Fatalf("coordinated latency n=%d min=%v max=%v mean=%v s, want %d × RTT %v s",
			l.Count(), l.Min(), l.Max(), l.Mean(), cfg.Rounds, rtt)
	}
	if rtt < 1e-3 {
		t.Fatalf("RTT %v s at %v m, want ≥ 1 ms", rtt, cfg.DistanceM)
	}
	// Win-rate ordering: local 0.75 < quantum < coordinated 1.0.
	if coord.WinRate.Trials() != int64(cfg.Rounds) || coord.WinRate.Rate() != 1 {
		t.Fatalf("coordinated win rate %v over %d rounds", coord.WinRate.Rate(), coord.WinRate.Trials())
	}
	lo, _ := quantum.WinRate.Wilson95()
	if lo <= 0.75 {
		t.Fatalf("quantum win rate %v does not significantly beat local 0.75", quantum.WinRate.Rate())
	}
	if !local.WinRate.Contains95(0.75) {
		t.Fatalf("local win rate %v", local.WinRate.Rate())
	}
	// The pre-shared pool at 10⁵ pairs/s comfortably covers 10⁴ req/s.
	if quantum.QuantumFraction < 0.95 {
		t.Fatalf("quantum fraction %v, expected near-full coverage", quantum.QuantumFraction)
	}
	if ParetoSummary(rows) == "" {
		t.Fatal("empty summary")
	}
}

// TestRunTimingSupplyStarvation is E7: when demand outstrips the source,
// the quantum fraction collapses toward supply/demand and the win rate
// interpolates toward classical.
func TestRunTimingSupplyStarvation(t *testing.T) {
	cfg := DefaultTimingConfig()
	cfg.Rounds = 6000
	cfg.RequestRate = 4e5 // 4× the 10⁵ pair rate
	rows := RunTiming(cfg)
	var quantum TimingResult
	for _, r := range rows {
		if r.Architecture == "quantum-pre-shared" {
			quantum = r
		}
	}
	if quantum.QuantumFraction > 0.5 {
		t.Fatalf("quantum fraction %v under 4x starvation, want ≤ ~0.25-0.4", quantum.QuantumFraction)
	}
	// Win rate must sit strictly between classical and full quantum.
	r := quantum.WinRate.Rate()
	if r <= 0.74 || r >= 0.85 {
		t.Fatalf("starved win rate %v should interpolate between 0.75 and 0.854", r)
	}
}

func BenchmarkSessionRound(b *testing.B) {
	s, _ := NewSession(Config{
		Game:     games.NewCHSH(),
		Supplier: entangle.PerfectSupplier{Visibility: 1},
		Seed:     1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Round(time.Duration(i), i&1, (i>>1)&1)
	}
}

// TestBrownoutRoundSkipsSupplyChain: the load-driven brownout round plays
// the best-classical strategy without consuming pairs or probing the
// supply — a counting supplier must see zero consumption attempts while
// the win rate stays on the classical floor.
func TestBrownoutRoundSkipsSupplyChain(t *testing.T) {
	hc := HealthConfig{Window: 8}
	supply := &countingSupplier{vis: 1}
	s, err := NewSession(Config{
		Game:     games.NewColocationCHSH(),
		Supplier: supply,
		Seed:     9,
		Health:   &hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9, 0xb0)
	for i := 0; i < 100000; i++ {
		x, y := s.cfg.Game.SampleInput(rng)
		d := s.BrownoutRound(x, y)
		if d.Mode != ModeFallback || d.Level != DegradeClassical {
			t.Fatalf("brownout round %d: mode %v level %v", i, d.Mode, d.Level)
		}
	}
	if supply.calls != 0 {
		t.Fatalf("brownout rounds consumed %d supply attempts, want 0", supply.calls)
	}
	st := s.Stats()
	if st.Rounds != 100000 || st.FallbackRounds != st.Rounds ||
		st.LevelRounds[DegradeClassical] != st.Rounds {
		t.Fatalf("stats: %+v", st)
	}
	if !st.Wins.Contains95(0.75) {
		t.Fatalf("brownout win rate %v, want classical 0.75", st.Wins.Rate())
	}
	// The health monitor saw nothing: no probes happened, so engaging
	// brownout is the serving layer's job, not a side effect here.
	if s.Health().Visibility() != 0 || s.Health().SupplyRate() != 0 {
		t.Fatal("brownout rounds fed the health monitor")
	}
}

// countingSupplier counts TryConsume calls and always offers a pair.
type countingSupplier struct {
	vis   float64
	calls int
}

func (c *countingSupplier) TryConsume(now time.Duration) (float64, bool) {
	c.calls++
	return c.vis, true
}
