// Package games implements the non-local games at the center of the paper:
// the CHSH game, its colocation variant used for load balancing, general
// graph-labeled XOR games (paper §4.1 / Figure 3) and the three-player
// Mermin–GHZ game.
//
// For every game the package can compute
//
//   - the exact classical value (enumeration over deterministic strategies —
//     shared randomness cannot beat the best deterministic strategy by
//     convexity), and
//   - the quantum value: for XOR games via Tsirelson's vector
//     characterization solved with full-rank Burer–Monteiro coordinate
//     ascent (replacing the paper's use of the Toqito Python package), and
//     on an arbitrary shared two-qubit state via the Liang–Doherty see-saw
//     iteration the paper cites as [39].
//
// It also provides correlation samplers: given a strategy, produce joint
// outputs for simulation rounds. Quantum samplers draw from the exact
// Born-rule behavior P(a,b|x,y) = (1 + (−1)^{a⊕b}·⟨u_x,v_y⟩)/4 — this is the
// "classically simulate quantum correlations when the full request stream is
// known" testbed cheat the paper's conclusion describes.
package games

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// XORGame is a two-party binary game whose win condition depends only on the
// XOR of the answers: on inputs (x, y) the players win iff a ⊕ b equals
// Parity[x][y]. Prob[x][y] is the referee's input distribution.
type XORGame struct {
	Name   string
	NA, NB int         // input alphabet sizes
	Prob   [][]float64 // π(x,y), non-negative, sums to 1
	Parity [][]int     // desired a⊕b ∈ {0,1} for each input pair
}

// Validate checks the structural invariants of the game definition.
func (g *XORGame) Validate() error {
	if g.NA <= 0 || g.NB <= 0 {
		return fmt.Errorf("games: %s: empty input alphabet", g.Name)
	}
	if len(g.Prob) != g.NA || len(g.Parity) != g.NA {
		return fmt.Errorf("games: %s: row count mismatch", g.Name)
	}
	var total float64
	for x := 0; x < g.NA; x++ {
		if len(g.Prob[x]) != g.NB || len(g.Parity[x]) != g.NB {
			return fmt.Errorf("games: %s: column count mismatch in row %d", g.Name, x)
		}
		for y := 0; y < g.NB; y++ {
			p := g.Prob[x][y]
			if p < 0 || math.IsNaN(p) {
				return fmt.Errorf("games: %s: negative probability at (%d,%d)", g.Name, x, y)
			}
			total += p
			if g.Parity[x][y] != 0 && g.Parity[x][y] != 1 {
				return fmt.Errorf("games: %s: parity must be 0/1 at (%d,%d)", g.Name, x, y)
			}
		}
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("games: %s: probabilities sum to %v, want 1", g.Name, total)
	}
	return nil
}

// ValueFromBias converts a bias ε ∈ [−1, 1] into a win probability.
func ValueFromBias(bias float64) float64 { return (1 + bias) / 2 }

// SampleInput draws an input pair (x, y) from the referee's distribution.
func (g *XORGame) SampleInput(rng *xrand.RNG) (x, y int) {
	u := rng.Float64()
	var acc float64
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			acc += g.Prob[x][y]
			if u < acc {
				return x, y
			}
		}
	}
	return g.NA - 1, g.NB - 1
}

// Wins reports whether answers (a, b) win on inputs (x, y).
func (g *XORGame) Wins(x, y, a, b int) bool {
	return (a^b)&1 == g.Parity[x][y]
}

// NewCHSH returns the standard CHSH game: uniform inputs, win iff
// a ⊕ b = x ∧ y. Classical value 3/4; quantum value cos²(π/8).
func NewCHSH() *XORGame {
	g := &XORGame{
		Name: "CHSH",
		NA:   2, NB: 2,
		Prob:   [][]float64{{0.25, 0.25}, {0.25, 0.25}},
		Parity: [][]int{{0, 0}, {0, 1}},
	}
	mustValidate(g)
	return g
}

// NewColocationCHSH returns the load-balancing variant from §4.1: inputs are
// 1 for a type-C task and 0 for a type-E task, and the balancers should
// output the SAME server bit iff both tasks are type-C — win iff
// a ⊕ b = ¬(x ∧ y). It is CHSH with one output flipped, so it has the same
// classical (3/4) and quantum (cos²(π/8)) values.
func NewColocationCHSH() *XORGame {
	g := &XORGame{
		Name: "colocation-CHSH",
		NA:   2, NB: 2,
		Prob:   [][]float64{{0.25, 0.25}, {0.25, 0.25}},
		Parity: [][]int{{1, 1}, {1, 0}},
	}
	mustValidate(g)
	return g
}

// EdgeLabel says whether two task classes want to share a server.
type EdgeLabel int

const (
	// Colocate: when the parties receive these two classes they should
	// output the same bit (same server).
	Colocate EdgeLabel = iota
	// Exclusive: the parties should output different bits.
	Exclusive
)

// GraphXORGame builds the affinity game of §4.1: vertices are task classes;
// for each unordered pair {u, v} (u ≠ v) the label says whether the classes
// colocate or exclude. The referee picks a uniformly random ordered pair of
// distinct vertices. This is the game family of Figure 3.
//
// labels[u][v] must be symmetric and is only read for u ≠ v.
func GraphXORGame(name string, n int, labels [][]EdgeLabel) *XORGame {
	if n < 2 {
		panic("games: GraphXORGame needs at least 2 vertices")
	}
	g := &XORGame{Name: name, NA: n, NB: n}
	g.Prob = make([][]float64, n)
	g.Parity = make([][]int, n)
	p := 1.0 / float64(n*(n-1))
	for x := 0; x < n; x++ {
		g.Prob[x] = make([]float64, n)
		g.Parity[x] = make([]int, n)
		for y := 0; y < n; y++ {
			if x == y {
				continue
			}
			if labels[x][y] != labels[y][x] {
				panic("games: asymmetric edge labels")
			}
			g.Prob[x][y] = p
			if labels[x][y] == Exclusive {
				g.Parity[x][y] = 1
			}
		}
	}
	mustValidate(g)
	return g
}

// RandomGraphXORGame samples the Figure 3 ensemble: a complete graph on n
// vertices where each edge is independently Exclusive with probability
// pExclusive (else Colocate).
func RandomGraphXORGame(n int, pExclusive float64, rng *xrand.RNG) *XORGame {
	labels := make([][]EdgeLabel, n)
	for i := range labels {
		labels[i] = make([]EdgeLabel, n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			l := Colocate
			if rng.Bool(pExclusive) {
				l = Exclusive
			}
			labels[u][v], labels[v][u] = l, l
		}
	}
	return GraphXORGame(fmt.Sprintf("K%d-random", n), n, labels)
}

func mustValidate(g *XORGame) {
	if err := g.Validate(); err != nil {
		panic(err)
	}
}
