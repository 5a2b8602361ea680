package loadbalance

import (
	"fmt"

	"repro/internal/games"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// RandomStrategy is the paper's classical baseline: every task goes to a
// uniformly random server, no coordination of any kind.
type RandomStrategy struct{}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "classical-random" }

// Assign implements Strategy.
func (RandomStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	out := dst
	for i := range out {
		out[i] = rng.IntN(view.NumServers())
	}
	return out
}

// RoundRobinStrategy cycles each balancer independently through the servers
// (kube-proxy style), starting from a random per-balancer offset.
type RoundRobinStrategy struct {
	next []int
}

// Name implements Strategy.
func (*RoundRobinStrategy) Name() string { return "round-robin" }

// Assign implements Strategy.
func (r *RoundRobinStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	m := view.NumServers()
	// Grow the per-balancer counters lazily: a strategy value reused across
	// sweep points may see the balancer count rise between calls, and new
	// balancers start from a fresh random offset exactly like the first
	// call's. (The first call appends offsets in balancer order, drawing the
	// same RNG sequence the old make-once path drew.)
	for len(r.next) < len(tasks) {
		r.next = append(r.next, rng.IntN(m))
	}
	out := dst
	for i := range out {
		out[i] = r.next[i] % m
		r.next[i] = (r.next[i] + 1) % m
	}
	return out
}

// PowerOfTwoStrategy samples two servers and picks the shorter queue, using
// the previous slot's queue lengths (realistically stale information).
type PowerOfTwoStrategy struct{}

// Name implements Strategy.
func (PowerOfTwoStrategy) Name() string { return "power-of-two" }

// Assign implements Strategy.
func (PowerOfTwoStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	out := dst
	for i := range out {
		a, b := serverPair(view.NumServers(), rng)
		if view.QueueLen(b) < view.QueueLen(a) {
			a = b
		}
		out[i] = a
	}
	return out
}

// PairedStrategy is the common machinery of the paper's quantum protocol
// and its classical twin: balancers are paired; each pair draws a random
// pair of servers per slot (shared randomness — a classical resource) and
// plays the colocation game to decide who goes where. Only the game sampler
// differs between quantum and classical variants.
type PairedStrategy struct {
	name    string
	sampler games.JointSampler
	coloc   stats.Proportion
}

// NewQuantumPairedStrategy builds the paper's quantum strategy: each pair
// shares entanglement and plays the colocation CHSH game at the given
// visibility (1 = noiseless). Success probability per pair-round is
// V·cos²(π/8) + (1−V)/2.
func NewQuantumPairedStrategy(visibility float64, rng *xrand.RNG) *PairedStrategy {
	q := games.NewColocationCHSH().QuantumValue(rng)
	return &PairedStrategy{
		name:    fmt.Sprintf("quantum-chsh(V=%.2f)", visibility),
		sampler: q.QuantumSampler(visibility),
	}
}

// NewClassicalPairedStrategy builds the best classical paired strategy: the
// optimal deterministic colocation-game answers (succeeds 3/4 of the time).
// Comparing it against the quantum variant isolates the entanglement win
// from the benefit of pairing and server-pair spreading alone.
func NewClassicalPairedStrategy() *PairedStrategy {
	return &PairedStrategy{
		name:    "classical-paired",
		sampler: games.NewColocationCHSH().BestClassicalSampler(),
	}
}

// Name implements Strategy.
func (p *PairedStrategy) Name() string { return p.name }

// Assign implements Strategy.
func (p *PairedStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	n := len(tasks)
	m := view.NumServers()
	out := dst

	// Static pairing: balancer i plays with balancer i+1.
	for i := 0; i+1 < n; i += 2 {
		j := i + 1
		// Shared randomness: the pair agrees on two distinct servers.
		s0, s1 := serverPair(m, rng)
		xIsC := tasks[i].Type == workload.TypeC
		yIsC := tasks[j].Type == workload.TypeC
		a, b := games.ColocationDecision(p.sampler, xIsC, yIsC, rng)
		out[i] = pick(s0, s1, a)
		out[j] = pick(s0, s1, b)

		wantSame := xIsC && yIsC
		gotSame := out[i] == out[j]
		p.coloc.Add(wantSame == gotSame)
	}
	// Odd balancer out: no partner, route randomly.
	if n%2 == 1 {
		out[n-1] = rng.IntN(m)
	}
	return out
}

// serverPair draws the two distinct servers a pair of balancers agrees on.
// A single server admits one assignment, so at m < 2 both are server 0 and
// nothing is drawn, as in DedicatedStrategy.
func serverPair(m int, rng *xrand.RNG) (int, int) {
	if m < 2 {
		return 0, 0
	}
	return rng.TwoDistinct(m)
}

func pick(s0, s1, bit int) int {
	if bit == 0 {
		return s0
	}
	return s1
}

// ColocationStats implements ColocationTracker.
func (p *PairedStrategy) ColocationStats() *stats.Proportion { return &p.coloc }

// DedicatedStrategy is the hybrid the paper's caveats discuss: a fixed
// fraction of servers is reserved for type-C tasks; type-E tasks go to the
// rest. It needs no coordination but wastes capacity when the mix drifts,
// and cannot handle multiple mutually exclusive type-C subtypes.
type DedicatedStrategy struct {
	// FractionC is the share of servers reserved for type-C tasks.
	FractionC float64
}

// Name implements Strategy.
func (d DedicatedStrategy) Name() string { return fmt.Sprintf("dedicated(%.2f)", d.FractionC) }

// Assign implements Strategy.
func (d DedicatedStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	m := view.NumServers()
	out := dst
	// A single server cannot be partitioned: both task types share it.
	// (Without this guard the clamps below would leave zero servers in one
	// partition and panic in rng.IntN(0).)
	if m < 2 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	nC := int(d.FractionC * float64(m))
	if nC < 1 {
		nC = 1
	}
	if nC >= m {
		nC = m - 1
	}
	for i, t := range tasks {
		if t.Type == workload.TypeC {
			out[i] = rng.IntN(nC)
		} else {
			out[i] = nC + rng.IntN(m-nC)
		}
	}
	return out
}

// OracleStrategy is the full-communication upper bound: it sees every task
// and every live queue length, pairs type-C tasks greedily onto the least
// loaded servers, and spreads type-E tasks onto the least loaded remainder.
// Physically it requires a round trip the paper's whole premise is about
// avoiding; it bounds what any coordination-free scheme can hope for.
type OracleStrategy struct{}

// Name implements Strategy.
func (OracleStrategy) Name() string { return "oracle-full-communication" }

// Assign implements Strategy.
func (OracleStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	m := view.NumServers()
	load := make([]int, m)
	for s := 0; s < m; s++ {
		load[s] = view.QueueLen(s)
	}
	out := dst

	var cIdx, eIdx []int
	for i, t := range tasks {
		if t.Type == workload.TypeC {
			cIdx = append(cIdx, i)
		} else {
			eIdx = append(eIdx, i)
		}
	}
	// Pairs of C tasks share one server slot (the discipline serves two at
	// once), so a pair adds effectively one service slot of work.
	for k := 0; k+1 < len(cIdx); k += 2 {
		s := argmin(load)
		out[cIdx[k]], out[cIdx[k+1]] = s, s
		load[s] += 2
	}
	if len(cIdx)%2 == 1 {
		s := argmin(load)
		out[cIdx[len(cIdx)-1]] = s
		load[s]++
	}
	for _, i := range eIdx {
		s := argmin(load)
		out[i] = s
		load[s]++
	}
	return out
}

func argmin(xs []int) int {
	best := 0
	for i, v := range xs {
		if v < xs[best] {
			best = i
		}
	}
	return best
}
