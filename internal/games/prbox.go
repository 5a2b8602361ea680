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
