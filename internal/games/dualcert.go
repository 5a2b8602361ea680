package games

import (
	"repro/internal/linalg"
)

// Dual certificate: settle "is the best classical strategy already the
// quantum optimum?" without climbing to it.
//
// The quantum bias is the SDP  max ⟨W, X⟩  over X ⪰ 0 with unit diagonal,
// W = ½·[[0, M], [Mᵀ, 0]] and X the Gram matrix of (u_1..u_NA, v_1..v_NB).
// Its dual is  min Σ d_i  subject to  diag(d) − W ⪰ 0, and weak duality
// extends to infeasible d by shifting every d_i up by −λ_min:
//
//	q ≤ Σ d_i + (NA+NB)·max(0, −λ_min(diag(d) − W)).
//
// A classical optimum (a, b) ∈ {±1}^NA × {±1}^NB of bias c is the rank-1
// feasible point X = zzᵀ, z = (a; b). Complementary slackness with that X
// leaves exactly one candidate for the dual optimum,
//
//	λ_x = a_x·Σ_y M_xy·b_y,   μ_y = b_y·Σ_x M_xy·a_x,   d = ½·(λ; μ),
//
// whose objective is ½·(aᵀMb + aᵀMb) = c, so with
//
//	S = ½·[[diag λ, −M], [−Mᵀ, diag μ]]
//
// the bound reads q ≤ c + (NA+NB)·max(0, −λ_min(S)). S·z = 0 always, so
// λ_min(S) ≤ 0, and S ⪰ 0 holds exactly when q = c: the test is complete as
// well as sound, up to the numerical threshold below.
//
// This is where the ascent is at its worst. On 320 of the 352 no-advantage
// labelings of the Figure 3 ensemble S has a null direction besides z, the
// objective is flat to second order along it, and coordinate ascent closes
// the gap like 1/k² instead of geometrically: ~7200 iterations on each of 8
// restarts, to stop 3.6e-10 below c. The certificate answers the same
// question with one eigendecomposition of a (NA+NB)×(NA+NB) matrix and
// returns c exactly.

// certMaxInputs is the largest alphabet, on either side, for which the
// certificate is tried before the ascent. What it must stay below is the
// cheapest ascent there can be: 8 restarts × the 2 iterations it takes to
// see convergence × 3 passes of NA·NB·(NA+NB) multiply-adds, after
// 8·(NA+NB)² normal draws — about 170 µs at 12×12 on the 2.1 GHz Xeon the
// numbers below come from (a real 12×12 ascent takes 7 ms).
//
//   - The classical optimum costs 2^NA·NB column updates when nobody hands
//     it down (ClassicalValue enumerates Alice): 65 µs at 12×12 and double
//     that per further input, so it crosses the cheapest ascent at 13–14.
//   - The Jacobi eigendecomposition is cubic, ≈ 57 ns·(NA+NB)³: 57 µs for
//     K5 (half an ascent that finds an advantage, 1/800 of one that does
//     not) and 0.8 ms at 12×12, a ninth of the ascent there. Bounding both
//     alphabets, not just the enumerated one, is what keeps a 2×200 game
//     from paying 0.5 s for it.
//
// A game taller or wider goes straight to the ascent. The gate reads the
// shape alone, so a game's result cannot depend on which entry point solved
// it first.
const certMaxInputs = 12

// certGapBound is the acceptance threshold, as a bound on q − c: a game is
// certified only when the computed (NA+NB)·max(0, −λ_min(S)) is at most half
// of 1e-10. The other half covers the eigenvalue error: Jacobi stops at an
// off-diagonal norm of 1e-14·(1+‖S‖_F) with ‖S‖_F ≤ 2 for a normalized π,
// rounding adds about sweeps·(NA+NB)·ε·‖S‖ ≈ 5e-14, so λ_min is good to
// 1e-13 and the bound to 24·1e-13 = 2.4e-12. Certified therefore means
// q − c ≤ 1e-10, three orders inside AdvantageTolerance. A game that misses
// the threshold narrowly is simply not certified and takes the ascent.
const certGapBound = 0.5e-10

// answerSign maps an answer bit to its ±1 observable value, (−1)^bit.
func answerSign(bit int) float64 { return 1 - 2*float64(bit&1) }

// dualGap returns (NA+NB)·max(0, −λ_min(S)) for the certificate built from
// the classical optimum c: an upper bound on q − c.Bias, zero exactly when c
// is SDP-optimal.
func (g *XORGame) dualGap(c ClassicalResult) float64 {
	na, n := g.NA, g.NA+g.NB
	s := newMatrix(n, n)
	for x := 0; x < na; x++ {
		for y := 0; y < g.NB; y++ {
			m := g.Prob[x][y]
			if g.Parity[x][y] == 1 {
				m = -m
			}
			amb := answerSign(c.A[x]) * m * answerSign(c.B[y])
			s[x][x] += 0.5 * amb
			s[na+y][na+y] += 0.5 * amb
			s[x][na+y] = -0.5 * m
			s[na+y][x] = -0.5 * m
		}
	}
	if lmin := linalg.EigSym(s).Values[0]; lmin < 0 {
		return float64(n) * -lmin
	}
	return 0
}

// certifiedQuantum returns the quantum optimum of a game whose classical
// optimum the dual certificate proves SDP-optimal: the rank-1 embedding
// u_x = a_x·e₁, v_y = b_y·e₁ in the solver's usual R^(NA+NB), with the
// classical bias bit for bit. classical is that optimum if the caller holds
// it, else nil. ok is false when the game is outside certMaxInputs or the
// certificate does not close, and the caller runs the ascent.
func (g *XORGame) certifiedQuantum(classical *ClassicalResult) (q QuantumResult, ok bool) {
	if g.NA > certMaxInputs || g.NB > certMaxInputs {
		return QuantumResult{}, false
	}
	if classical == nil {
		c := g.classicalValueUncached()
		classical = &c
	}
	c := *classical
	if g.dualGap(c) > certGapBound {
		return QuantumResult{}, false
	}
	d := g.NA + g.NB
	q = QuantumResult{
		Bias:  c.Bias,
		Value: ValueFromBias(c.Bias),
		U:     newMatrix(g.NA, d),
		V:     newMatrix(g.NB, d),
		Dot:   newMatrix(g.NA, g.NB),
	}
	for x := range q.U {
		q.U[x][0] = answerSign(c.A[x])
	}
	for y := range q.V {
		q.V[y][0] = answerSign(c.B[y])
	}
	for x := range q.Dot {
		for y := range q.Dot[x] {
			q.Dot[x][y] = q.U[x][0] * q.V[y][0]
		}
	}
	return q, true
}
