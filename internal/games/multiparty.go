package games

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/qsim"
	"repro/internal/xrand"
)

// NPartyXORGame is an n-player game with binary inputs and outputs whose win
// condition depends only on the XOR of all answers. The paper notes XOR
// games "have also been extended to more than two players … where the
// advantage is larger than in the two-party case".
type NPartyXORGame struct {
	Name    string
	Players int
	// Inputs[i] is an allowed joint input, one bit per player packed with
	// player 0 as the most significant bit; Prob[i] its probability; and
	// Parity[i] the XOR of answers required to win.
	Inputs []int
	Prob   []float64
	Parity []int
}

// Validate checks structural invariants.
func (g *NPartyXORGame) Validate() error {
	if g.Players < 2 {
		return fmt.Errorf("games: %s: need at least 2 players", g.Name)
	}
	if len(g.Inputs) != len(g.Prob) || len(g.Inputs) != len(g.Parity) {
		return fmt.Errorf("games: %s: inputs/prob/parity length mismatch", g.Name)
	}
	var total float64
	for i, p := range g.Prob {
		if p < 0 {
			return fmt.Errorf("games: %s: negative probability", g.Name)
		}
		total += p
		if g.Inputs[i] < 0 || g.Inputs[i] >= 1<<g.Players {
			return fmt.Errorf("games: %s: input %d out of range", g.Name, g.Inputs[i])
		}
		if g.Parity[i] != 0 && g.Parity[i] != 1 {
			return fmt.Errorf("games: %s: parity must be 0/1", g.Name)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("games: %s: probabilities sum to %v", g.Name, total)
	}
	return nil
}

// MerminGHZ returns the three-player GHZ game: inputs drawn uniformly from
// {000, 011, 101, 110}; win iff a ⊕ b ⊕ c = x ∨ y ∨ z. Classically at most
// 3/4; a shared GHZ state wins with probability 1 (the "pseudo-telepathy"
// regime — the largest possible gap).
func MerminGHZ() *NPartyXORGame {
	g := &NPartyXORGame{
		Name:    "Mermin-GHZ",
		Players: 3,
		Inputs:  []int{0b000, 0b011, 0b101, 0b110},
		Prob:    []float64{0.25, 0.25, 0.25, 0.25},
		Parity:  []int{0, 1, 1, 1},
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// ClassicalValue computes the exact classical value by enumerating every
// deterministic strategy profile: each player maps its input bit to an
// output bit, 4 strategies per player, 4^n total. Exact for n ≤ 10.
func (g *NPartyXORGame) ClassicalValue() float64 {
	if g.Players > 10 {
		panic("games: NPartyXORGame.ClassicalValue enumeration too large")
	}
	nProfiles := 1
	for p := 0; p < g.Players; p++ {
		nProfiles *= 4
	}
	best := 0.0
	for profile := 0; profile < nProfiles; profile++ {
		// Player p's table is 2 bits of profile: bit for input 0, bit for
		// input 1.
		var v float64
		for i, joint := range g.Inputs {
			parity := 0
			pr := profile
			for p := 0; p < g.Players; p++ {
				table := pr & 3
				pr >>= 2
				in := joint >> (g.Players - 1 - p) & 1
				parity ^= table >> in & 1
			}
			if parity == g.Parity[i] {
				v += g.Prob[i]
			}
		}
		if v > best {
			best = v
		}
	}
	return best
}

// SampleInput draws a joint input according to the referee's distribution.
func (g *NPartyXORGame) SampleInput(rng *xrand.RNG) int {
	return g.Inputs[rng.Categorical(g.Prob)]
}

// Wins reports whether the packed answers win on the packed joint input.
func (g *NPartyXORGame) Wins(inputIdx int, answers int) bool {
	parity := 0
	for p := 0; p < g.Players; p++ {
		parity ^= answers >> p & 1
	}
	return parity == g.Parity[inputIdx]
}

// GHZSampler plays an n-party XOR game with a shared GHZ state: player p
// measures Pauli-X on input 0 and Pauli-Y on input 1. For the Mermin–GHZ
// game this strategy wins every round.
type GHZSampler struct {
	Players int
	rng     *xrand.RNG
	table   *qsim.OutcomeTable // GHZ(n) with each qubit in {X, Y}: the choice IS the joint input
}

// NewGHZSampler builds the sampler for the given number of players.
func NewGHZSampler(players int, rng *xrand.RNG) *GHZSampler {
	bases := make([][]qsim.Basis, players)
	for p := range bases {
		bases[p] = []qsim.Basis{qsim.Hadamard(), yEigenBasis()}
	}
	return &GHZSampler{
		Players: players,
		rng:     rng,
		table:   qsim.GHZ(players).OutcomeTable(bases...),
	}
}

func yEigenBasis() qsim.Basis {
	r := 1 / math.Sqrt2
	// Columns are the Pauli-Y eigenvectors (|0⟩ ± i|1⟩)/√2.
	return qsim.NewBasis(linalg.MatFromRows([][]complex128{
		{complex(r, 0), complex(r, 0)},
		{complex(0, r), complex(0, -r)},
	}))
}

// Sample measures a fresh GHZ state in the input-selected bases and returns
// the packed outcome bits (player 0 most significant; only the XOR of the
// bits matters to Wins, so packing order is irrelevant to scoring).
func (s *GHZSampler) Sample(joint int, _ *xrand.RNG) int {
	return s.table.Sample(joint, s.rng)
}

// ExactValue computes the GHZ strategy's exact winning probability on g. It
// fills table cells, so like Sample it is not safe for concurrent use.
func (s *GHZSampler) ExactValue(g *NPartyXORGame) float64 {
	var v float64
	for i, joint := range g.Inputs {
		if g.Prob[i] == 0 {
			continue
		}
		for o, prob := range s.table.Distribution(joint) {
			if g.Wins(i, o) {
				v += g.Prob[i] * prob
			}
		}
	}
	return v
}

// EmpiricalValue estimates the sampler's winning probability by playing
// rounds.
func (g *NPartyXORGame) EmpiricalValue(s *GHZSampler, rounds int, rng *xrand.RNG) float64 {
	wins := 0
	for r := 0; r < rounds; r++ {
		idx := rng.Categorical(g.Prob)
		ans := s.Sample(g.Inputs[idx], rng)
		if g.Wins(idx, ans) {
			wins++
		}
	}
	return float64(wins) / float64(rounds)
}
