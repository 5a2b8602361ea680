package games

// Biased games (cf. the paper's reference [38], Lawson–Linden–Popescu,
// "Biased nonlocal games"): the colocation game's referee is the WORKLOAD,
// and real workloads are rarely a 50/50 type-C/type-E mix. When balancer A
// sees a type-C task with probability pA (independently pB for B), the
// input distribution of the colocation game is the product Bernoulli
// distribution — and both the optimal classical strategy and the optimal
// measurement bases change with the mix. This file builds the biased
// colocation game; its tests show that tuning the strategy to the mix pays.

// BiasedColocationGame returns the §4.1 colocation game under a product
// input distribution: x = 1 with probability pA, y = 1 with probability pB,
// win iff a ⊕ b = ¬(x ∧ y). pA = pB = ½ recovers NewColocationCHSH.
func BiasedColocationGame(pA, pB float64) *XORGame {
	checkProbability(pA)
	checkProbability(pB)
	g := &XORGame{
		Name: "biased-colocation",
		NA:   2, NB: 2,
		Prob: [][]float64{
			{(1 - pA) * (1 - pB), (1 - pA) * pB},
			{pA * (1 - pB), pA * pB},
		},
		Parity: [][]int{{1, 1}, {1, 0}},
	}
	mustValidate(g)
	return g
}

func checkProbability(p float64) {
	if p < 0 || p > 1 {
		panic("games: probability out of [0,1]")
	}
}
