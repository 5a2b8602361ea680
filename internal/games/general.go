package games

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/qsim"
	"repro/internal/xrand"
)

// GeneralGame is an arbitrary finite two-party game: input alphabets of
// sizes NA/NB, output alphabets of sizes KA/KB, an input distribution, and a
// win predicate. §4.1 notes that "algorithms exist that can determine
// whether a quantum advantage is possible for an arbitrary finite game" —
// this file implements the classical side exactly; SeeSawOnState
// (adaptive.go) is the quantum side, the Liang–Doherty see-saw lower bound
// (the paper's reference [39]).
type GeneralGame struct {
	Name           string
	NA, NB, KA, KB int
	Prob           [][]float64
	Win            func(x, y, a, b int) bool
}

// Validate checks structural invariants.
func (g *GeneralGame) Validate() error {
	if g.NA <= 0 || g.NB <= 0 || g.KA <= 0 || g.KB <= 0 {
		return fmt.Errorf("games: %s: empty alphabet", g.Name)
	}
	if g.Win == nil {
		return fmt.Errorf("games: %s: nil win predicate", g.Name)
	}
	if len(g.Prob) != g.NA {
		return fmt.Errorf("games: %s: probability row count", g.Name)
	}
	var total float64
	for x := range g.Prob {
		if len(g.Prob[x]) != g.NB {
			return fmt.Errorf("games: %s: probability column count", g.Name)
		}
		for _, p := range g.Prob[x] {
			if p < 0 {
				return fmt.Errorf("games: %s: negative probability", g.Name)
			}
			total += p
		}
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("games: %s: probabilities sum to %v", g.Name, total)
	}
	return nil
}

// FromXOR lifts an XORGame to the general representation (binary outputs).
func FromXOR(x *XORGame) *GeneralGame {
	return &GeneralGame{
		Name: x.Name,
		NA:   x.NA, NB: x.NB, KA: 2, KB: 2,
		Prob: x.Prob,
		Win:  func(xx, yy, a, b int) bool { return x.Wins(xx, yy, a, b) },
	}
}

// ClassicalValue computes the exact classical value by enumerating Alice's
// KA^NA deterministic strategies; Bob best-responds separately per input.
// Panics when the enumeration would exceed ~16M strategies.
func (g *GeneralGame) ClassicalValue() float64 {
	profiles := 1
	for i := 0; i < g.NA; i++ {
		profiles *= g.KA
		if profiles > 1<<24 {
			panic("games: GeneralGame.ClassicalValue enumeration too large")
		}
	}
	best := 0.0
	aChoice := make([]int, g.NA)
	for profile := 0; profile < profiles; profile++ {
		p := profile
		for x := 0; x < g.NA; x++ {
			aChoice[x] = p % g.KA
			p /= g.KA
		}
		var v float64
		for y := 0; y < g.NB; y++ {
			bestB := 0.0
			for b := 0; b < g.KB; b++ {
				var w float64
				for x := 0; x < g.NA; x++ {
					if g.Prob[x][y] > 0 && g.Win(x, y, aChoice[x], b) {
						w += g.Prob[x][y]
					}
				}
				if w > bestB {
					bestB = w
				}
			}
			v += bestB
		}
		if v > best {
			best = v
		}
	}
	return best
}

// SeeSawResult is the outcome of the see-saw iteration: a certified-feasible
// quantum strategy (a lower bound on the quantum value) with the projectors
// that realize it on the shared state.
type SeeSawResult struct {
	Value float64
	// AliceProj[x] / BobProj[y] are the outcome-0 projectors on C².
	AliceProj, BobProj []*linalg.Mat
}

// bobEffectInto returns the effect operator for outcome o given the
// outcome-0 projector p: p itself for o = 0 (out untouched), and for o = 1
// the complement I − p written into out. The complement subtracts from
// explicit identity entries, matching Identity(2).Sub(p) bit for bit.
func bobEffectInto(out, p *linalg.Mat, o int) *linalg.Mat {
	if o == 0 {
		return p
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var id complex128
			if i == j {
				id = 1
			}
			out.Set(i, j, id-p.At(i, j))
		}
	}
	return out
}

// positiveEigenprojector returns the projector onto the strictly positive
// eigenspace of a 2×2 Hermitian matrix.
func positiveEigenprojector(h *linalg.Mat) *linalg.Mat {
	// Hermitize numerical dust before decomposing.
	hh := h.Add(h.Dagger()).Scale(0.5)
	eig := linalg.EigHermitian(hh)
	out := linalg.NewMat(2, 2)
	for k, v := range eig.Values {
		if v > 0 {
			col := linalg.Vec{eig.Vectors.At(0, k), eig.Vectors.At(1, k)}
			out = out.Add(col.Outer(col))
		}
	}
	return out
}

func randomProjector(rng *xrand.RNG) *linalg.Mat {
	v := linalg.Vec{
		complex(rng.NormFloat64(), rng.NormFloat64()),
		complex(rng.NormFloat64(), rng.NormFloat64()),
	}
	v.Normalize()
	return v.Outer(v)
}

// VerifyBehaviorNoSignaling checks that a behavior's marginals are
// input-independent — every physical strategy must pass. Returns the largest
// violation found.
func VerifyBehaviorNoSignaling(p [][][][]float64) float64 {
	var worst float64
	na := len(p)
	if na == 0 {
		return 0
	}
	nb := len(p[0])
	// Alice's marginal must not depend on y.
	for x := 0; x < na; x++ {
		for a := 0; a < 2; a++ {
			ref := p[x][0][a][0] + p[x][0][a][1]
			for y := 1; y < nb; y++ {
				m := p[x][y][a][0] + p[x][y][a][1]
				if d := math.Abs(m - ref); d > worst {
					worst = d
				}
			}
		}
	}
	// Bob's marginal must not depend on x.
	for y := 0; y < nb; y++ {
		for b := 0; b < 2; b++ {
			ref := p[0][y][0][b] + p[0][y][1][b]
			for x := 1; x < na; x++ {
				m := p[x][y][0][b] + p[x][y][1][b]
				if d := math.Abs(m - ref); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// ExactBellValue scores a set of real measurement angles on a Werner state
// of the given visibility against an arbitrary general game — the bridge
// between GeneralGame and the physical simulator.
func (g *GeneralGame) ExactBellValue(anglesA, anglesB []float64, visibility float64) float64 {
	if g.KA != 2 || g.KB != 2 {
		panic("games: ExactBellValue supports binary outputs only")
	}
	state := qsim.Werner(visibility)
	var v float64
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			if g.Prob[x][y] == 0 {
				continue
			}
			dist := state.OutcomeDistribution([]qsim.Basis{
				qsim.RotatedReal(anglesA[x]), qsim.RotatedReal(anglesB[y]),
			})
			for o, p := range dist {
				if g.Win(x, y, o>>1&1, o&1) {
					v += g.Prob[x][y] * p
				}
			}
		}
	}
	return v
}
