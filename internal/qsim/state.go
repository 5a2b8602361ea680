// Package qsim is an exact simulator for the small quantum systems this
// repository needs: pure states and density matrices over a handful of
// qubits, projective measurement in arbitrary bases, tensor products,
// partial traces, and the entangled resource states the paper builds on
// (Bell pairs, GHZ and W states) plus the Werner noise model.
//
// Convention: a state over n qubits is a vector of 2^n amplitudes. Qubit 0
// is the most significant bit of the basis index, so |q0 q1 … q(n−1)⟩ has
// index q0·2^(n−1) + … + q(n−1). "The first qubit goes to the first server"
// exactly as in the paper's notation.
package qsim

import (
	"math"
	"math/cmplx"

	"repro/internal/linalg"
	"repro/internal/xrand"
)

// State is a pure quantum state over NumQubits qubits.
type State struct {
	NumQubits int
	Amp       linalg.Vec
}

// BasisState returns |bits⟩, e.g. BasisState(0b10, 2) = |10⟩.
func BasisState(bits, numQubits int) *State {
	if bits < 0 || bits >= 1<<numQubits {
		panic("qsim: basis index out of range")
	}
	s := &State{NumQubits: numQubits, Amp: linalg.NewVec(1 << numQubits)}
	s.Amp[bits] = 1
	return s
}

// FromAmplitudes builds a state from raw amplitudes, normalizing them.
// It panics if the vector length is not a power of two or is all zero.
func FromAmplitudes(amp []complex128) *State {
	n := len(amp)
	if n == 0 || n&(n-1) != 0 {
		panic("qsim: amplitude count must be a power of two")
	}
	q := 0
	for 1<<q < n {
		q++
	}
	v := linalg.Vec(append([]complex128(nil), amp...))
	v.Normalize()
	return &State{NumQubits: q, Amp: v}
}

// Bell returns the Bell pair (|00⟩ + |11⟩)/√2 — the only entangled resource
// the paper's two-party protocols need.
func Bell() *State {
	r := 1 / math.Sqrt2
	return FromAmplitudes([]complex128{complex(r, 0), 0, 0, complex(r, 0)})
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

// GHZ returns the n-qubit GHZ state (|0…0⟩ + |1…1⟩)/√2.
func GHZ(n int) *State {
	if n < 2 {
		panic("qsim: GHZ needs at least 2 qubits")
	}
	amp := make([]complex128, 1<<n)
	r := complex(1/math.Sqrt2, 0)
	amp[0] = r
	amp[len(amp)-1] = r
	return FromAmplitudes(amp)
}

// W returns the n-qubit W state, the uniform superposition of single-
// excitation basis states.
func W(n int) *State {
	if n < 2 {
		panic("qsim: W needs at least 2 qubits")
	}
	amp := make([]complex128, 1<<n)
	r := complex(1/math.Sqrt(float64(n)), 0)
	for k := 0; k < n; k++ {
		amp[1<<(n-1-k)] = r
	}
	return FromAmplitudes(amp)
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	return &State{NumQubits: s.NumQubits, Amp: s.Amp.Clone()}
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

// ApplyUnitary1 applies the 2×2 unitary u to qubit k in place.
func (s *State) ApplyUnitary1(k int, u *linalg.Mat) {
	if u.Rows != 2 || u.Cols != 2 {
		panic("qsim: ApplyUnitary1 needs a 2x2 matrix")
	}
	s.applyPairwise(k, u.At(0, 0), u.At(0, 1), u.At(1, 0), u.At(1, 1))
}

// applyPairwise applies [[a,b],[c,d]] to qubit k.
func (s *State) applyPairwise(k int, a, b, c, d complex128) {
	if k < 0 || k >= s.NumQubits {
		panic("qsim: qubit index out of range")
	}
	bit := 1 << (s.NumQubits - 1 - k)
	n := len(s.Amp)
	for i := 0; i < n; i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.Amp[i], s.Amp[j]
		s.Amp[i] = a*a0 + b*a1
		s.Amp[j] = c*a0 + d*a1
	}
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

// OutcomeDistribution returns the joint probability distribution over all
// 2^n outcomes when qubit k is measured in bases[k] for every k.
// The state is not modified.
func (s *State) OutcomeDistribution(bases []Basis) []float64 {
	if len(bases) != s.NumQubits {
		panic("qsim: need one basis per qubit")
	}
	work := s.Clone()
	for k, b := range bases {
		work.ApplyUnitary1(k, b.dagger())
	}
	dist := make([]float64, len(work.Amp))
	for i, a := range work.Amp {
		dist[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return dist
}

// SampleOutcomes draws a joint outcome (one bit per qubit, packed with qubit
// 0 as the most significant bit) without mutating the state.
func (s *State) SampleOutcomes(bases []Basis, rng *xrand.RNG) int {
	return sampleDist(s.OutcomeDistribution(bases), rng)
}
