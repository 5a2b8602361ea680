package qsim

import (
	"repro/internal/linalg"
	"repro/internal/xrand"
)

// Density is a density matrix over NumQubits qubits — the mixed-state
// representation needed for the noise models (Werner states) and for the
// §4.2 reduction argument (pre-measurement turns a tripartite pure state
// into a mixture of bipartite states).
type Density struct {
	NumQubits int
	Rho       *linalg.Mat
}

// DensityFromPure returns |ψ⟩⟨ψ|.
func DensityFromPure(s *State) *Density {
	return &Density{NumQubits: s.NumQubits, Rho: s.Amp.Outer(s.Amp)}
}

// MaximallyMixed returns I/2^n.
func MaximallyMixed(numQubits int) *Density {
	d := 1 << numQubits
	rho := linalg.Identity(d).Scale(complex(1/float64(d), 0))
	return &Density{NumQubits: numQubits, Rho: rho}
}

// Werner returns the two-qubit Werner state
//
//	ρ = V·|Φ+⟩⟨Φ+| + (1−V)·I/4
//
// V is the visibility: V = 1 is a perfect Bell pair, V = 0 is pure noise.
// The CHSH win probability with the optimal bases is V·cos²(π/8) + (1−V)/2,
// so the quantum advantage vanishes at V = (3−2√2)/... numerically V ≈ 0.707
// (where V·cos²(π/8) + (1−V)/2 = 0.75).
func Werner(v float64) *Density {
	if v < 0 || v > 1 {
		panic("qsim: Werner visibility must lie in [0,1]")
	}
	bell := DensityFromPure(Bell())
	mixed := MaximallyMixed(2)
	rho := bell.Rho.Scale(complex(v, 0)).Add(mixed.Rho.Scale(complex(1-v, 0)))
	return &Density{NumQubits: 2, Rho: rho}
}

// FidelityPure returns ⟨ψ|ρ|ψ⟩, the fidelity with a pure target state.
func (d *Density) FidelityPure(s *State) float64 {
	if s.NumQubits != d.NumQubits {
		panic("qsim: fidelity across different system sizes")
	}
	return real(s.Amp.Dot(d.Rho.MulVec(s.Amp)))
}

// OutcomeDistribution returns the joint distribution over 2^n outcomes when
// qubit k is measured in bases[k]. P(o) = Tr(ρ · ⊗ₖ Πₖ).
func (d *Density) OutcomeDistribution(bases []Basis) []float64 {
	if len(bases) != d.NumQubits {
		panic("qsim: need one basis per qubit")
	}
	n := d.NumQubits
	dist := make([]float64, 1<<n)
	for o := range dist {
		// Build ⊗ projectors for outcome bits of o.
		proj := bases[0].Projector((o >> (n - 1)) & 1)
		for k := 1; k < n; k++ {
			proj = proj.Kron(bases[k].Projector((o >> (n - 1 - k)) & 1))
		}
		dist[o] = real(d.Rho.Mul(proj).Trace())
		if dist[o] < 0 && dist[o] > -1e-12 {
			dist[o] = 0 // numerical dust
		}
	}
	return dist
}

// SampleOutcomes draws a joint outcome without mutating the state.
func (d *Density) SampleOutcomes(bases []Basis, rng *xrand.RNG) int {
	return sampleDist(d.OutcomeDistribution(bases), rng)
}

// PartialTrace traces out the listed qubits and returns the reduced density
// matrix over the remaining qubits (in their original relative order).
func (d *Density) PartialTrace(traceOut ...int) *Density {
	drop := make(map[int]bool, len(traceOut))
	for _, q := range traceOut {
		if q < 0 || q >= d.NumQubits {
			panic("qsim: PartialTrace qubit out of range")
		}
		if drop[q] {
			panic("qsim: duplicate qubit in PartialTrace")
		}
		drop[q] = true
	}
	keep := make([]int, 0, d.NumQubits-len(traceOut))
	for q := 0; q < d.NumQubits; q++ {
		if !drop[q] {
			keep = append(keep, q)
		}
	}
	if len(keep) == 0 {
		panic("qsim: cannot trace out every qubit")
	}

	nk, nd := len(keep), len(traceOut)
	out := linalg.NewMat(1<<nk, 1<<nk)
	// For each pair of kept-subsystem indices (i, j) sum over the dropped
	// subsystem's diagonal index e.
	for i := 0; i < 1<<nk; i++ {
		for j := 0; j < 1<<nk; j++ {
			var sum complex128
			for e := 0; e < 1<<nd; e++ {
				row := composeIndex(d.NumQubits, keep, i, traceOut, e)
				col := composeIndex(d.NumQubits, keep, j, traceOut, e)
				sum += d.Rho.At(row, col)
			}
			out.Set(i, j, sum)
		}
	}
	return &Density{NumQubits: nk, Rho: out}
}

// composeIndex builds a full-system basis index from sub-indices on the kept
// and dropped qubit sets. Bit b of subIdx corresponds to qubit set[b] with
// the same most-significant-first convention as State.
func composeIndex(numQubits int, keep []int, keepIdx int, dropped []int, dropIdx int) int {
	idx := 0
	for b, q := range keep {
		bit := (keepIdx >> (len(keep) - 1 - b)) & 1
		idx |= bit << (numQubits - 1 - q)
	}
	for b, q := range dropped {
		bit := (dropIdx >> (len(dropped) - 1 - b)) & 1
		idx |= bit << (numQubits - 1 - q)
	}
	return idx
}

// MeasureQubit measures qubit k in basis b, returning the outcome and the
// post-measurement (collapsed, renormalized) state. The receiver is not
// modified.
func (d *Density) MeasureQubit(k int, b Basis, rng *xrand.RNG) (int, *Density) {
	p0proj := expandProjector(d.NumQubits, k, b.Projector(0))
	p0 := real(d.Rho.Mul(p0proj).Trace())
	outcome := 0
	if rng.Float64() >= p0 {
		outcome = 1
	}
	return outcome, d.collapse(k, b, outcome)
}

// Collapse returns the normalized post-measurement state given that qubit k
// was measured in basis b with the given outcome. Used by the §4.2 reduction
// demo where party C "measures in advance".
func (d *Density) Collapse(k int, b Basis, outcome int) *Density {
	return d.collapse(k, b, outcome)
}

// OutcomeProbability returns P(outcome) for measuring qubit k in basis b.
func (d *Density) OutcomeProbability(k int, b Basis, outcome int) float64 {
	proj := expandProjector(d.NumQubits, k, b.Projector(outcome))
	return real(d.Rho.Mul(proj).Trace())
}

func (d *Density) collapse(k int, b Basis, outcome int) *Density {
	proj := expandProjector(d.NumQubits, k, b.Projector(outcome))
	num := proj.Mul(d.Rho).Mul(proj)
	p := real(num.Trace())
	if p <= 0 {
		panic("qsim: collapse onto a zero-probability outcome")
	}
	return &Density{NumQubits: d.NumQubits, Rho: num.Scale(complex(1/p, 0))}
}

// expandProjector embeds a single-qubit projector on qubit k into the full
// 2^n-dimensional space.
func expandProjector(numQubits, k int, p *linalg.Mat) *linalg.Mat {
	var out *linalg.Mat
	for q := 0; q < numQubits; q++ {
		var factor *linalg.Mat
		if q == k {
			factor = p
		} else {
			factor = linalg.Identity(2)
		}
		if out == nil {
			out = factor
		} else {
			out = out.Kron(factor)
		}
	}
	return out
}
