package games

import "repro/internal/xrand"

// PRBoxSampler is a Popescu–Rohrlich box: the strongest NO-SIGNALING
// correlation, which wins any XOR game with certainty while keeping both
// marginals uniform. It is super-quantum — physics forbids it (Tsirelson's
// bound caps quantum correlations strictly below it) — but it is the right
// theoretical ceiling for "coordination without communication": comparing
// classical (0.75), quantum (0.854) and PR (1.0) shows exactly how much of
// the gap entanglement closes and how much is forever out of reach. The
// paper's phrase "optimal under standard physical laws [66]" is precisely
// the statement that the quantum point, not the PR point, is attainable.
type PRBoxSampler struct {
	// Game supplies the parity target the box satisfies exactly.
	Game *XORGame
}

// Sample returns uniformly random a with b = a ⊕ parity(x, y): the win
// condition holds always, each output alone is a fair coin, and neither
// party's marginal depends on the other's input — no-signaling, yet beyond
// quantum.
func (p *PRBoxSampler) Sample(x, y int, rng *xrand.RNG) (a, b int) {
	a = rng.IntN(2)
	return a, a ^ p.Game.Parity[x][y]
}

// Behavior returns the box's conditional distribution, for no-signaling
// verification in tests.
func (p *PRBoxSampler) Behavior() [][][][]float64 {
	out := make([][][][]float64, p.Game.NA)
	for x := 0; x < p.Game.NA; x++ {
		out[x] = make([][][]float64, p.Game.NB)
		for y := 0; y < p.Game.NB; y++ {
			out[x][y] = [][]float64{{0, 0}, {0, 0}}
			par := p.Game.Parity[x][y]
			out[x][y][0][par] = 0.5
			out[x][y][1][1^par] = 0.5
		}
	}
	return out
}
