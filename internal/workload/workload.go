// Package workload generates the synthetic request streams the experiments
// consume. The paper's simulation (§4.1) draws, per time slot and per load
// balancer, a type-C (colocation-loving) or type-E (exclusivity-loving) task
// with equal probability; this package provides that generator plus the
// variants used by the robustness ablations (biased mixes, bursty streams,
// multi-class streams for XOR-game scheduling) and Poisson arrivals for the
// timing experiments.
package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/xrand"
)

// TaskType is the affinity class of a request.
type TaskType int

const (
	// TypeE tasks want exclusive access to a server (paper's type-E).
	TypeE TaskType = iota
	// TypeC tasks benefit from colocation with other type-C tasks.
	TypeC
)

// String renders the paper's names.
func (t TaskType) String() string {
	switch t {
	case TypeC:
		return "C"
	case TypeE:
		return "E"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// Task is one request presented to a load balancer.
type Task struct {
	Type TaskType
	// Class is the fine-grained affinity class for multi-class workloads
	// (vertex of the XOR-game graph). For two-class workloads it is 0/1
	// mirroring Type.
	Class int
}

// Generator produces one task per balancer per slot.
type Generator interface {
	// Next returns the task for the given balancer in the current slot.
	Next(balancer int, rng *xrand.RNG) Task
}

// Cloner is implemented by stateful generators (phase machines, slot
// counters). CloneGenerator returns a fresh instance with the same
// parameters and pristine state. Run loops clone before simulating, so one
// prototype shared across repetitions, sweep points or sharded cells never
// leaks phase state between runs and is never mutated from two goroutines.
type Cloner interface {
	CloneGenerator() Generator
}

// Validator is implemented by generators whose parameters can be
// inconsistent (mismatched slice lengths, bad probabilities). Run loops
// check it up front so a bad config surfaces as an error at the sweep
// boundary instead of an index panic deep inside a worker goroutine.
type Validator interface {
	Validate() error
}

// Bernoulli is the paper's workload: i.i.d. type-C with probability PC.
type Bernoulli struct {
	// PC is the probability a task is type-C. The paper uses 1/2.
	PC float64
}

// Next draws a task.
func (g Bernoulli) Next(_ int, rng *xrand.RNG) Task {
	if rng.Bool(g.PC) {
		return Task{Type: TypeC, Class: 1}
	}
	return Task{Type: TypeE, Class: 0}
}

// MultiClass draws a class from a categorical distribution over k classes;
// ClassTypes[k] says whether class k behaves as type-C or type-E at the
// servers. Used by the XOR-game scheduling experiments where affinity is a
// labeled graph over classes.
type MultiClass struct {
	Weights    []float64
	ClassTypes []TaskType
}

// Next draws a task.
func (g MultiClass) Next(_ int, rng *xrand.RNG) Task {
	c := rng.Categorical(g.Weights)
	return Task{Type: g.ClassTypes[c], Class: c}
}

// Validate checks the weight/type tables agree. A short ClassTypes would
// otherwise surface as a bare index panic on whatever draw first lands in
// the missing tail — deep inside a sweep, long after the config was built.
func (g MultiClass) Validate() error {
	if len(g.Weights) == 0 {
		return fmt.Errorf("workload: MultiClass needs at least one class")
	}
	if len(g.ClassTypes) != len(g.Weights) {
		return fmt.Errorf("workload: MultiClass has %d weights but %d class types",
			len(g.Weights), len(g.ClassTypes))
	}
	var total float64
	for i, w := range g.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("workload: MultiClass weight %d is %v", i, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workload: MultiClass weights sum to %v", total)
	}
	return nil
}

// Bursty alternates between a C-heavy and an E-heavy phase with geometric
// phase lengths — an adversarial stream for the robustness ablation, since
// correlated bursts of type-C tasks stress colocation the most.
//
// The per-balancer phase lives in a presized []bool, not a map: concurrent
// Next calls for DISTINCT balancers write disjoint pre-allocated elements,
// which the Go memory model permits, whereas the lazily-grown map this type
// used to carry was a data race the moment a sweep shared one generator
// across workers. Construct with NewBursty (or call Reset) to presize; the
// zero-value literal still works single-threaded, growing on demand.
type Bursty struct {
	PCHot, PCCold float64 // P(type-C) in the hot and cold phase
	SwitchProb    float64 // per-slot probability of flipping phase
	// NumBalancers presizes the phase table (Reset allocates it). Zero is
	// fine for serial use; parallel drivers need the presized table.
	NumBalancers int

	hot []bool // per-balancer phase
}

// NewBursty returns a bursty generator with the phase table presized for
// numBalancers, safe to drive from concurrent goroutines as long as each
// goroutine sticks to its own balancer indices.
func NewBursty(pcHot, pcCold, switchProb float64, numBalancers int) *Bursty {
	g := &Bursty{PCHot: pcHot, PCCold: pcCold, SwitchProb: switchProb, NumBalancers: numBalancers}
	g.Reset()
	return g
}

// Next draws a task, evolving the balancer's phase.
func (g *Bursty) Next(balancer int, rng *xrand.RNG) Task {
	if balancer >= len(g.hot) {
		// Serial-use escape hatch only: growing is not goroutine-safe. Keep
		// NumBalancers honest so CloneGenerator preserves the reached size.
		g.hot = append(g.hot, make([]bool, balancer+1-len(g.hot))...)
		if g.NumBalancers < len(g.hot) {
			g.NumBalancers = len(g.hot)
		}
	}
	if rng.Bool(g.SwitchProb) {
		g.hot[balancer] = !g.hot[balancer]
	}
	pc := g.PCCold
	if g.hot[balancer] {
		pc = g.PCHot
	}
	if rng.Bool(pc) {
		return Task{Type: TypeC, Class: 1}
	}
	return Task{Type: TypeE, Class: 0}
}

// Reset clears every balancer back to the cold phase and (re)allocates the
// presized table, so repeated runs from one prototype start identically.
func (g *Bursty) Reset() {
	n := g.NumBalancers
	if n < 0 {
		n = 0
	}
	g.hot = make([]bool, n)
}

// CloneGenerator returns a fresh generator with pristine phase state.
func (g *Bursty) CloneGenerator() Generator {
	return NewBursty(g.PCHot, g.PCCold, g.SwitchProb, g.NumBalancers)
}

// Validate checks the phase probabilities.
func (g *Bursty) Validate() error {
	for _, p := range []float64{g.PCHot, g.PCCold, g.SwitchProb} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("workload: Bursty probabilities must lie in [0,1] (hot %v, cold %v, switch %v)",
				g.PCHot, g.PCCold, g.SwitchProb)
		}
	}
	return nil
}

// PoissonArrivals generates request timestamps for the timing experiments:
// inter-arrival times are Exp(rate).
type PoissonArrivals struct {
	Rate float64 // requests per second
	last time.Duration
}

// Next returns the next arrival time after the previous one. The clock
// saturates at the maximum Duration instead of overflowing: for tiny rates
// the float gap exceeds int64 nanoseconds, and the old unchecked conversion
// silently produced negative arrival times that walked the clock backwards.
func (p *PoissonArrivals) Next(rng *xrand.RNG) time.Duration {
	if !(p.Rate > 0) { // NaN fails the comparison
		panic("workload: arrival rate must be positive")
	}
	gapF := rng.ExpFloat64() / p.Rate * float64(time.Second)
	// The conversion below is exact for every gap a sane rate produces; only
	// the pathological path (rate so low one gap overflows int64 ns, or a
	// clock already near the end of representable time) is clamped, so
	// arrival streams at normal rates are bit-identical to the historical
	// ones.
	if gapF >= float64(math.MaxInt64) {
		p.last = math.MaxInt64
		return p.last
	}
	gap := time.Duration(gapF)
	if p.last > math.MaxInt64-gap {
		p.last = math.MaxInt64
		return p.last
	}
	p.last += gap
	return p.last
}

// Reset restarts the clock.
func (p *PoissonArrivals) Reset() { p.last = 0 }
