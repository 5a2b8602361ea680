package qsim

import (
	"math"
	"math/cmplx"

	"repro/internal/linalg"
	"repro/internal/xrand"
)

// matrix returns the unitary (columns = basis vectors).
func (b Basis) matrix() *linalg.Mat { return b.u }

// Observable returns the ±1 observable P₀ − P₁ for this basis, used by the
// XOR-game machinery (outcome bit 0 ↦ eigenvalue +1).
func (b Basis) Observable() *linalg.Mat {
	return b.Projector(0).Sub(b.Projector(1))
}

// GateX returns the Pauli-X matrix.
func GateX() *linalg.Mat {
	return linalg.MatFromRows([][]complex128{{0, 1}, {1, 0}})
}

// NoSignalingViolation measures how much the marginal distribution of the
// `observer` qubits changes when the basis on the `remote` qubit changes from
// basisA to basisB, with all other qubits measured in `fixed`. A physical
// state/measurement pair must return ~0. Returns the total-variation distance.
func NoSignalingViolation(d *Density, observer []int, remote int, basisA, basisB Basis, fixed []Basis) float64 {
	basesA := make([]Basis, d.NumQubits)
	basesB := make([]Basis, d.NumQubits)
	copy(basesA, fixed)
	copy(basesB, fixed)
	basesA[remote] = basisA
	basesB[remote] = basisB

	ma := MarginalDistribution(d.OutcomeDistribution(basesA), d.NumQubits, observer)
	mb := MarginalDistribution(d.OutcomeDistribution(basesB), d.NumQubits, observer)

	var tv float64
	for i := range ma {
		tv += math.Abs(ma[i] - mb[i])
	}
	return tv / 2
}

// BasisState returns |bits⟩, e.g. BasisState(0b10, 2) = |10⟩.
func BasisState(bits, numQubits int) *State {
	if bits < 0 || bits >= 1<<numQubits {
		panic("qsim: basis index out of range")
	}
	s := &State{NumQubits: numQubits, Amp: make(linalg.Vec, 1<<numQubits)}
	s.Amp[bits] = 1
	return s
}

// BellPhi returns one of the four Bell states selected by (bitFlip, phase):
// (false,false)=Φ+, (false,true)=Φ−, (true,false)=Ψ+, (true,true)=Ψ−.
func BellPhi(bitFlip, phase bool) *State {
	r := complex(1/math.Sqrt2, 0)
	amp := make([]complex128, 4)
	sign := r
	if phase {
		sign = -r
	}
	if bitFlip {
		amp[0b01], amp[0b10] = r, sign
	} else {
		amp[0b00], amp[0b11] = r, sign
	}
	return FromAmplitudes(amp)
}

// Tensor returns s ⊗ t, the combined system with s's qubits first.
func (s *State) Tensor(t *State) *State {
	return &State{NumQubits: s.NumQubits + t.NumQubits, Amp: s.Amp.Kron(t.Amp)}
}

// NormError returns |‖ψ‖ − 1|, a cheap invariant check.
func (s *State) NormError() float64 { return math.Abs(s.Amp.Norm() - 1) }

// InnerProduct returns ⟨s|t⟩.
func (s *State) InnerProduct(t *State) complex128 {
	if s.NumQubits != t.NumQubits {
		panic("qsim: inner product across different system sizes")
	}
	return s.Amp.Dot(t.Amp)
}

// Fidelity returns |⟨s|t⟩|², the overlap probability between pure states.
func (s *State) Fidelity(t *State) float64 {
	a := cmplx.Abs(s.InnerProduct(t))
	return a * a
}

// Probability returns |⟨bits|ψ⟩|² for a full computational-basis outcome.
func (s *State) Probability(bits int) float64 {
	a := cmplx.Abs(s.Amp[bits])
	return a * a
}

// MeasureQubit measures qubit k in the given single-qubit basis, collapses
// the state, and returns the outcome (0 or 1). Outcome o means "the state was
// projected onto basis vector o".
func (s *State) MeasureQubit(k int, b Basis, rng *xrand.RNG) int {
	// Rotate so the desired basis becomes the computational basis…
	s.ApplyUnitary1(k, b.dagger())
	bit := 1 << (s.NumQubits - 1 - k)
	var p1 float64
	for i, a := range s.Amp {
		if i&bit != 0 {
			p1 += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	// …collapse…
	var norm float64
	for i := range s.Amp {
		hit := (i&bit != 0) == (outcome == 1)
		if !hit {
			s.Amp[i] = 0
		} else {
			norm += real(s.Amp[i])*real(s.Amp[i]) + imag(s.Amp[i])*imag(s.Amp[i])
		}
	}
	if norm > 0 {
		s.Amp.Scale(complex(1/math.Sqrt(norm), 0))
	}
	// …and rotate back so remaining qubits are untouched and qubit k holds
	// the post-measurement basis vector.
	s.ApplyUnitary1(k, b.matrix())
	return outcome
}

// Mix returns Σ pᵢ·ρᵢ. Weights must be non-negative and sum to ~1.
func Mix(weights []float64, states []*Density) *Density {
	if len(weights) != len(states) || len(states) == 0 {
		panic("qsim: Mix needs matching non-empty weights and states")
	}
	var total float64
	n := states[0].NumQubits
	acc := linalg.NewMat(1<<n, 1<<n)
	for i, w := range weights {
		if w < 0 {
			panic("qsim: negative mixture weight")
		}
		if states[i].NumQubits != n {
			panic("qsim: mixture across different system sizes")
		}
		total += w
		acc = acc.Add(states[i].Rho.Scale(complex(w, 0)))
	}
	if math.Abs(total-1) > 1e-9 {
		panic("qsim: mixture weights must sum to 1")
	}
	return &Density{NumQubits: n, Rho: acc}
}

// TraceError returns |Tr ρ − 1|.
func (d *Density) TraceError() float64 {
	return cmplx.Abs(d.Rho.Trace() - 1)
}

// IsValid reports whether ρ is Hermitian, unit trace, and positive
// semidefinite within tol.
func (d *Density) IsValid(tol float64) bool {
	if !d.Rho.IsHermitian(tol) || d.TraceError() > tol {
		return false
	}
	eig := linalg.EigHermitian(d.Rho)
	return eig.Values[0] > -tol
}

// Purity returns Tr ρ², which is 1 exactly for pure states.
func (d *Density) Purity() float64 {
	return real(d.Rho.Mul(d.Rho).Trace())
}
