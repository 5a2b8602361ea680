package qsim

import (
	"math"

	"repro/internal/linalg"
)

// Basis is a single-qubit orthonormal measurement basis. Column o of the
// unitary is the state onto which outcome o projects.
type Basis struct {
	u *linalg.Mat
}

// NewBasis builds a basis from an explicit 2×2 unitary whose columns are the
// basis vectors. It panics if the matrix is not unitary.
func NewBasis(u *linalg.Mat) Basis {
	if u.Rows != 2 || u.Cols != 2 {
		panic("qsim: basis must be 2x2")
	}
	if !u.IsUnitary(1e-9) {
		panic("qsim: basis matrix is not unitary")
	}
	return Basis{u: u.Clone()}
}

// Computational returns the standard basis {|0⟩, |1⟩}.
func Computational() Basis {
	return Basis{u: linalg.Identity(2)}
}

// Hadamard returns the basis {|+⟩, |−⟩}.
func Hadamard() Basis { return RotatedReal(math.Pi / 4) }

// RotatedReal returns the real rotated basis
//
//	|φ0⟩ = cos θ·|0⟩ + sin θ·|1⟩
//	|φ1⟩ = −sin θ·|0⟩ + cos θ·|1⟩
//
// This is the family the paper's CHSH strategy uses ("player x in input i
// measures in the basis cos θ |0⟩ + sin θ |1⟩").
func RotatedReal(theta float64) Basis {
	c, s := math.Cos(theta), math.Sin(theta)
	u := linalg.NewMat(2, 2)
	u.Set(0, 0, complex(c, 0))
	u.Set(1, 0, complex(s, 0))
	u.Set(0, 1, complex(-s, 0))
	u.Set(1, 1, complex(c, 0))
	return Basis{u: u}
}

// RotatedRealSet returns RotatedReal(θ) for each angle: one party's
// measurement choices, in the shape OutcomeTable takes them.
func RotatedRealSet(thetas []float64) []Basis {
	bases := make([]Basis, len(thetas))
	for i, theta := range thetas {
		bases[i] = RotatedReal(theta)
	}
	return bases
}

// FromVector returns the basis whose outcome-0 vector is the given
// (normalized) single-qubit state; outcome 1 projects onto its orthogonal
// complement.
func FromVector(v linalg.Vec) Basis {
	if len(v) != 2 {
		panic("qsim: FromVector needs a 2-dimensional vector")
	}
	w := v.Clone().Normalize()
	u := linalg.NewMat(2, 2)
	u.Set(0, 0, w[0])
	u.Set(1, 0, w[1])
	// Orthogonal complement of (a, b) is (−conj(b), conj(a)).
	u.Set(0, 1, -conj(w[1]))
	u.Set(1, 1, conj(w[0]))
	return Basis{u: u}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// Vector returns basis vector o (0 or 1) as a fresh 2-vector.
func (b Basis) Vector(o int) linalg.Vec {
	return linalg.Vec{b.u.At(0, o), b.u.At(1, o)}
}

// dagger returns the inverse rotation used to map the basis onto the
// computational basis before measuring.
func (b Basis) dagger() *linalg.Mat { return b.u.Dagger() }

// Projector returns the rank-1 projector |φo⟩⟨φo| for outcome o.
func (b Basis) Projector(o int) *linalg.Mat {
	v := b.Vector(o)
	return v.Outer(v)
}

// The Pauli matrices: the Kraus operators of the noise channels.

// GateZ returns the Pauli-Z matrix.
func GateZ() *linalg.Mat {
	return linalg.MatFromRows([][]complex128{{1, 0}, {0, -1}})
}
