package loadbalance

import (
	"fmt"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// SupplyLimitedStrategy is the integration of E3 with E7: the quantum
// paired strategy, but every pair-round must consume a real entangled pair
// from a Supplier. When the pool is dry (or the pair too noisy to beat
// classical), the pair falls back to the best classical strategy for the
// colocation game. This answers the deployment question the idealized
// Figure 4 dodges: how much pair rate does the knee shift actually cost?
type SupplyLimitedStrategy struct {
	name     string
	supplier entangle.Supplier
	quantum  *games.XORQuantumSampler
	fallback games.JointSampler
	critVis  float64
	// SlotDuration maps simulation slots onto the supplier's clock.
	slotDuration time.Duration

	coloc         stats.Proportion
	quantumRounds int64
	totalRounds   int64
	slot          int64
}

// NewSupplyLimitedStrategy builds the strategy. slotDuration is the wall-
// clock length of one simulation slot (e.g. one task RTT); the supplier's
// pairs age on that clock.
func NewSupplyLimitedStrategy(supplier entangle.Supplier, slotDuration time.Duration, rng *xrand.RNG) *SupplyLimitedStrategy {
	game := games.NewColocationCHSH()
	c := game.ClassicalValue()
	q := game.QuantumValue(rng)
	return &SupplyLimitedStrategy{
		name:         "quantum-supply-limited",
		supplier:     supplier,
		quantum:      q.QuantumSampler(1.0),
		fallback:     &games.DeterministicSampler{A: c.A, B: c.B},
		critVis:      (c.Value - 0.5) / (q.Value - 0.5),
		slotDuration: slotDuration,
	}
}

// Name implements Strategy.
func (s *SupplyLimitedStrategy) Name() string { return s.name }

// Assign implements Strategy.
func (s *SupplyLimitedStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	now := time.Duration(s.slot) * s.slotDuration
	s.slot++
	n := len(tasks)
	m := view.NumServers()
	out := dst
	for k := 0; k+1 < n; k += 2 {
		i, j := k, k+1
		s0, s1 := serverPair(m, rng)
		xIsC := tasks[i].Type == workload.TypeC
		yIsC := tasks[j].Type == workload.TypeC

		var a, b int
		s.totalRounds++
		if vis, ok := s.supplier.TryConsume(now); ok && vis > s.critVis {
			s.quantum.Visibility = vis
			a, b = games.ColocationDecision(s.quantum, xIsC, yIsC, rng)
			s.quantumRounds++
		} else {
			a, b = games.ColocationDecision(s.fallback, xIsC, yIsC, rng)
		}
		out[i] = pick(s0, s1, a)
		out[j] = pick(s0, s1, b)

		wantSame := xIsC && yIsC
		s.coloc.Add(wantSame == (out[i] == out[j]))
	}
	if n%2 == 1 {
		out[n-1] = rng.IntN(m)
	}
	return out
}

// ColocationStats implements ColocationTracker.
func (s *SupplyLimitedStrategy) ColocationStats() *stats.Proportion { return &s.coloc }

// QuantumFraction reports the share of pair-rounds that consumed a pair.
func (s *SupplyLimitedStrategy) QuantumFraction() float64 {
	if s.totalRounds == 0 {
		return 0
	}
	return float64(s.quantumRounds) / float64(s.totalRounds)
}

// RatedSupplier adapts a raw pair generation rate into a Supplier without a
// discrete-event engine: pairs accrue continuously at rate pairsPerSecond
// into a bounded buffer with fixed visibility. It is the closed-form stand-
// in for entangle.Service when the caller drives time itself, and is
// deterministic (no sampling of the generation process).
type RatedSupplier struct {
	PairsPerSecond float64
	Visibility     float64
	BufferCap      float64

	lastRefill time.Duration
	buffered   float64
	started    bool
}

// NewRatedSupplier returns a supplier accruing pairs at the given rate with
// the given buffer capacity (pairs).
func NewRatedSupplier(pairsPerSecond, visibility float64, bufferCap float64) *RatedSupplier {
	if pairsPerSecond < 0 || visibility < 0 || visibility > 1 || bufferCap <= 0 {
		panic(fmt.Sprintf("loadbalance: invalid RatedSupplier(%v, %v, %v)",
			pairsPerSecond, visibility, bufferCap))
	}
	return &RatedSupplier{PairsPerSecond: pairsPerSecond, Visibility: visibility, BufferCap: bufferCap}
}

// TryConsume implements entangle.Supplier.
func (r *RatedSupplier) TryConsume(now time.Duration) (float64, bool) {
	if !r.started {
		r.started = true
		r.lastRefill = now
		r.buffered = r.BufferCap // pre-filled: distribution began long ago
	}
	if now > r.lastRefill {
		r.buffered += (now - r.lastRefill).Seconds() * r.PairsPerSecond
		if r.buffered > r.BufferCap {
			r.buffered = r.BufferCap
		}
		r.lastRefill = now
	}
	if r.buffered < 1 {
		return 0, false
	}
	r.buffered--
	return r.Visibility, true
}
