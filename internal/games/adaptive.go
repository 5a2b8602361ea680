package games

import (
	"math/cmplx"

	"repro/internal/linalg"
	"repro/internal/qsim"
	"repro/internal/xrand"
)

// Noise-adaptive strategy optimization: the paper's optimal CHSH angles are
// optimal for a PERFECT Bell pair (and stay optimal for Werner noise, which
// shrinks all correlators uniformly) — but real channels are anisotropic.
// Under dephasing, for example, the Z-correlations survive while the X-
// correlations decay, and the best measurement angles shift toward the
// computational basis. This file runs the Liang–Doherty see-saw (the
// paper's reference [39]) on an ARBITRARY shared two-qubit state, letting a
// deployment re-tune its measurements to the noise its certification run
// actually reveals.

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

// eigenScratch holds the 2×2 buffers one see-saw run computes its best
// responses in: the hermitized operator and the eigensolver's workspace and
// eigenvectors.
type eigenScratch struct{ hh, w, v *linalg.Mat }

func newEigenScratch() *eigenScratch {
	return &eigenScratch{hh: linalg.NewMat(2, 2), w: linalg.NewMat(2, 2), v: linalg.NewMat(2, 2)}
}

// positiveEigenprojector writes the projector onto the strictly positive
// eigenspace of the 2×2 Hermitian matrix h into out and returns out. It
// allocates nothing, and its arithmetic is that of
// h.Add(h.Dagger()).Scale(0.5) (hermitizing numerical dust), EigHermitian
// and a sum of Outer products from a zero matrix, in that order, so the
// projector is bit for bit theirs.
func (sc *eigenScratch) positiveEigenprojector(out, h *linalg.Mat) *linalg.Mat {
	half := complex(0.5, 0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sc.hh.Set(i, j, half*(h.At(i, j)+cmplx.Conj(h.At(j, i))))
		}
	}
	values := linalg.EigHermitian2Into(sc.hh, sc.w, sc.v)
	out.Zero()
	for k, v := range values {
		if v > 0 {
			col := [2]complex128{sc.v.At(0, k), sc.v.At(1, k)}
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					// The conversion rounds the product before the sum, as
					// Outer's stored entry is rounded before Add reads it.
					out.Set(i, j, out.At(i, j)+complex128(col[i]*cmplx.Conj(col[j])))
				}
			}
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

// SeeSawOnState computes a locally optimal strategy for the game played on
// the given shared two-qubit state (the Bell pair is
// qsim.DensityFromPure(qsim.Bell())). Each half-step is an exact best
// response (positive-eigenspace projector of the conditional score
// operator), so the value is monotone and converges; restarts guard
// against poor basins. The result is a valid quantum strategy, hence a
// lower bound on the quantum value (the general decision problem is
// undecidable, so a lower-bound method is the honest tool).
func (g *XORGame) SeeSawOnState(rho *qsim.Density, rng *xrand.RNG) SeeSawResult {
	if rho.NumQubits != 2 {
		panic("games: SeeSawOnState needs a two-qubit state")
	}
	const restarts = 6
	best := SeeSawResult{Value: -1}
	for r := 0; r < restarts; r++ {
		res := g.seeSawOnceOnState(rho, rng)
		if res.Value > best.Value {
			best = res
		}
	}
	return best
}

func (g *XORGame) seeSawOnceOnState(rho *qsim.Density, rng *xrand.RNG) SeeSawResult {
	alice := make([]*linalg.Mat, g.NA)
	bob := make([]*linalg.Mat, g.NB)
	for x := range alice {
		alice[x] = randomProjector(rng)
	}
	for y := range bob {
		bob[y] = randomProjector(rng)
	}

	// Shared scratch for the whole see-saw: effect buffers, the 4×4
	// Kronecker product, the conditional operator, the score accumulator
	// and the best response's eigensolver buffers are reused across
	// iterations; each best response overwrites its party's projector.
	effA := linalg.NewMat(2, 2)
	effB := linalg.NewMat(2, 2)
	full := linalg.NewMat(4, 4)
	cond := linalg.NewMat(2, 2)
	diff := linalg.NewMat(2, 2)
	eig := newEigenScratch()

	prob := func(aProj, bProj *linalg.Mat, a, b int) float64 {
		linalg.KronInto(full, bobEffectInto(effA, aProj, a), bobEffectInto(effB, bProj, b))
		return real(linalg.TraceMul(rho.Rho, full))
	}
	value := func() float64 {
		var v float64
		for x := 0; x < g.NA; x++ {
			for y := 0; y < g.NB; y++ {
				if g.Prob[x][y] == 0 {
					continue
				}
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if g.Wins(x, y, a, b) {
							v += g.Prob[x][y] * prob(alice[x], bob[y], a, b)
						}
					}
				}
			}
		}
		return v
	}

	prev := -1.0
	for iter := 0; iter < 500; iter++ {
		for x := 0; x < g.NA; x++ {
			diff.Zero()
			for y := 0; y < g.NB; y++ {
				if g.Prob[x][y] == 0 {
					continue
				}
				for b := 0; b < 2; b++ {
					conditionalOnAliceInto(cond, rho, bobEffectInto(effB, bob[y], b))
					c := complex(g.Prob[x][y], 0)
					if g.Wins(x, y, 0, b) {
						diff.AddScaledInPlace(c, cond)
					}
					if g.Wins(x, y, 1, b) {
						diff.SubScaledInPlace(c, cond)
					}
				}
			}
			eig.positiveEigenprojector(alice[x], diff)
		}
		for y := 0; y < g.NB; y++ {
			diff.Zero()
			for x := 0; x < g.NA; x++ {
				if g.Prob[x][y] == 0 {
					continue
				}
				for a := 0; a < 2; a++ {
					conditionalOnBobInto(cond, rho, bobEffectInto(effA, alice[x], a))
					c := complex(g.Prob[x][y], 0)
					if g.Wins(x, y, a, 0) {
						diff.AddScaledInPlace(c, cond)
					}
					if g.Wins(x, y, a, 1) {
						diff.SubScaledInPlace(c, cond)
					}
				}
			}
			eig.positiveEigenprojector(bob[y], diff)
		}
		v := value()
		if v-prev < 1e-12 {
			break
		}
		prev = v
	}
	return SeeSawResult{Value: value(), AliceProj: alice, BobProj: bob}
}

// conditionalOnAliceInto writes T(B) = Tr_B[(I ⊗ B) ρ] into t — the
// Alice-side operator such that Tr[(A ⊗ B) ρ] = Tr[A·T(B)]:
// T_{ij} = Σ_{k,m} B_{km} ρ_{(i,m),(j,k)}.
func conditionalOnAliceInto(t *linalg.Mat, rho *qsim.Density, b *linalg.Mat) *linalg.Mat {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var s complex128
			for k := 0; k < 2; k++ {
				for m := 0; m < 2; m++ {
					s += b.At(k, m) * rho.Rho.At(i*2+m, j*2+k)
				}
			}
			t.Set(i, j, s)
		}
	}
	return t
}

// conditionalOnBobInto writes T(A) = Tr_A[(A ⊗ I) ρ] into t, the Bob-side
// operator such that Tr[(A ⊗ B) ρ] = Tr[B·T(A)].
func conditionalOnBobInto(t *linalg.Mat, rho *qsim.Density, a *linalg.Mat) *linalg.Mat {
	for k := 0; k < 2; k++ {
		for l := 0; l < 2; l++ {
			var s complex128
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					s += a.At(i, j) * rho.Rho.At(j*2+l, i*2+k)
				}
			}
			// Coefficient of B_{kl} in Tr[(A⊗B)ρ] is T_{lk}.
			t.Set(l, k, s)
		}
	}
	return t
}

// BehaviorOnState evaluates the behavior P[x][y][a][b] of binary-output
// projective measurements (alice[x], bob[y]) on an arbitrary shared
// two-qubit state: P = Tr[(A^x_a ⊗ B^y_b) ρ].
func BehaviorOnState(rho *qsim.Density, alice, bob []*linalg.Mat) [][][][]float64 {
	if rho.NumQubits != 2 {
		panic("games: BehaviorOnState needs a two-qubit state")
	}
	effA := linalg.NewMat(2, 2)
	effB := linalg.NewMat(2, 2)
	full := linalg.NewMat(4, 4)
	p := make([][][][]float64, len(alice))
	for x := range alice {
		p[x] = make([][][]float64, len(bob))
		for y := range bob {
			p[x][y] = [][]float64{make([]float64, 2), make([]float64, 2)}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					linalg.KronInto(full, bobEffectInto(effA, alice[x], a), bobEffectInto(effB, bob[y], b))
					p[x][y][a][b] = real(linalg.TraceMul(rho.Rho, full))
				}
			}
		}
	}
	return p
}

// ReoptimizedSampler is the degradation ladder's second rung: when the
// delivered visibility sags, the session re-optimizes its measurement
// operators for the certified Werner channel at the measured visibility
// (see-saw on the actual state, the E15 machinery) and plays the resulting
// behavior. For isotropic (Werner) noise this recovers the fixed-angle
// value — the gain appears under anisotropic channels — but it guarantees
// the played strategy is the best the certified state supports. Returns
// the sampler and its exact value on the state.
func ReoptimizedSampler(g *XORGame, visibility float64, rng *xrand.RNG) (JointSampler, float64) {
	rho := qsim.Werner(visibility)
	res := g.SeeSawOnState(rho, rng)
	return &TableSampler{P: BehaviorOnState(rho, res.AliceProj, res.BobProj)}, res.Value
}

// AdaptiveGain quantifies how much re-optimizing the measurements for the
// actual noisy state recovers over playing the noiseless-optimal angles:
// it returns (fixed-angle value, adapted value) of the game on the state.
func AdaptiveGain(g *XORGame, rho *qsim.Density, fixed CHSHAngles, rng *xrand.RNG) (fixedValue, adaptedValue float64) {
	return g.ValueOn(rho, fixed), g.SeeSawOnState(rho, rng).Value
}
