// Package linalg provides the small dense linear-algebra kernel used by the
// quantum simulator and the XOR-game solvers: complex vectors and matrices,
// Kronecker products, a Jacobi eigensolver for Hermitian matrices, and a few
// real-vector helpers for the Tsirelson vector optimization.
//
// Everything is dense and allocation-explicit; the dimensions in this
// repository are tiny (state vectors up to 2^12, game matrices up to ~32), so
// clarity wins over cleverness.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vec is a dense complex column vector.
type Vec []complex128

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Dot returns the Hermitian inner product ⟨v|w⟩ = Σ conj(v_i)·w_i.
// It panics if dimensions differ.
func (v Vec) Dot(w Vec) complex128 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s complex128
	for i := range v {
		s += cmplx.Conj(v[i]) * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vec) Norm() float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit norm and returns v.
// It panics on the zero vector.
func (v Vec) Normalize() Vec {
	n := v.Norm()
	if n == 0 {
		panic("linalg: cannot normalize zero vector")
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Scale multiplies v in place by the scalar c and returns v.
func (v Vec) Scale(c complex128) Vec {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		panic("linalg: Add dimension mismatch")
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic("linalg: Sub dimension mismatch")
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Kron returns the Kronecker (tensor) product v ⊗ w.
func (v Vec) Kron(w Vec) Vec {
	out := make(Vec, len(v)*len(w))
	for i, a := range v {
		base := i * len(w)
		for j, b := range w {
			out[base+j] = a * b
		}
	}
	return out
}

// Outer returns |v⟩⟨w|, the outer product matrix.
func (v Vec) Outer(w Vec) *Mat {
	m := NewMat(len(v), len(w))
	for i, a := range v {
		for j, b := range w {
			m.Set(i, j, a*cmplx.Conj(b))
		}
	}
	return m
}

// ApproxEqual reports whether v and w agree entrywise within tol.
func (v Vec) ApproxEqual(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if cmplx.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// RVec is a dense real vector, used by the XOR-game vector optimization.
type RVec []float64

// Dot returns Σ v_i w_i.
func (v RVec) Dot(w RVec) float64 {
	if len(v) != len(w) {
		panic("linalg: RVec.Dot dimension mismatch")
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns ‖v‖₂.
func (v RVec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize scales v in place to unit norm and returns v.
// The zero vector is left unchanged (callers in the Burer–Monteiro loop treat
// a zero gradient row as "any unit vector works" and re-randomize).
func (v RVec) Normalize() RVec {
	n := v.Norm()
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}

// Zero clears v in place and returns v, so hot loops can reuse one buffer
// instead of allocating per iteration.
func (v RVec) Zero() RVec {
	for i := range v {
		v[i] = 0
	}
	return v
}
