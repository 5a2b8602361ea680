package loadbalance

import (
	"fmt"

	"repro/internal/games"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Multi-class extension of the Figure 4 simulation: tasks carry a class
// (graph vertex), pairs of balancers play the multi-class XOR game, and
// servers batch only same-class cache-loving tasks (two different caching
// classes pollute each other — the paper's argument against dedicated-
// server hybrids).

// GraphPairedStrategy pairs balancers and plays an arbitrary XOR game over
// task classes: the game's input alphabet must cover every class the
// workload emits. The outputs pick between the pair's two shared-random
// servers, exactly as in the two-class quantum strategy.
type GraphPairedStrategy struct {
	name    string
	game    *games.XORGame
	sampler games.JointSampler
	coloc   stats.Proportion
}

// NewGraphPairedStrategy solves the game (quantum, at the given visibility)
// and returns the paired strategy.
func NewGraphPairedStrategy(game *games.XORGame, visibility float64, rng *xrand.RNG) *GraphPairedStrategy {
	q := game.QuantumValue(rng)
	return &GraphPairedStrategy{
		name:    fmt.Sprintf("graph-quantum[%s](V=%.2f)", game.Name, visibility),
		game:    game,
		sampler: q.QuantumSampler(visibility),
	}
}

// NewGraphClassicalStrategy returns the best classical paired strategy for
// the same game — the baseline that isolates the entanglement win.
func NewGraphClassicalStrategy(game *games.XORGame) *GraphPairedStrategy {
	return &GraphPairedStrategy{
		name:    fmt.Sprintf("graph-classical[%s]", game.Name),
		game:    game,
		sampler: game.BestClassicalSampler(),
	}
}

// Name implements Strategy.
func (g *GraphPairedStrategy) Name() string { return g.name }

// Assign implements Strategy.
func (g *GraphPairedStrategy) Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int {
	n := len(tasks)
	m := view.NumServers()
	out := dst
	for k := 0; k+1 < n; k += 2 {
		i, j := k, k+1
		cx, cy := tasks[i].Class, tasks[j].Class
		if cx >= g.game.NA || cy >= g.game.NB {
			panic(fmt.Sprintf("loadbalance: class %d/%d outside game alphabet %dx%d",
				cx, cy, g.game.NA, g.game.NB))
		}
		s0, s1 := serverPair(m, rng)
		a, b := g.sampler.Sample(cx, cy, rng)
		out[i] = pick(s0, s1, a)
		out[j] = pick(s0, s1, b)

		wantSame := g.game.Parity[cx][cy] == 0
		gotSame := out[i] == out[j]
		g.coloc.Add(wantSame == gotSame)
	}
	if n%2 == 1 {
		out[n-1] = rng.IntN(m)
	}
	return out
}

// ColocationStats implements ColocationTracker.
func (g *GraphPairedStrategy) ColocationStats() *stats.Proportion { return &g.coloc }
