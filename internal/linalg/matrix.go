package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Mat is a dense complex matrix in row-major order.
type Mat struct {
	Rows, Cols int
	Data       []complex128
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// MatFromRows builds a matrix from row slices. All rows must share a length.
func MatFromRows(rows [][]complex128) *Mat {
	if len(rows) == 0 {
		panic("linalg: MatFromRows needs at least one row")
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows in MatFromRows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at (i, j).
func (m *Mat) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Mat) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Add returns m + b as a new matrix.
func (m *Mat) Add(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Add shape mismatch")
	}
	out := NewMat(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns m − b as a new matrix.
func (m *Mat) Sub(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Sub shape mismatch")
	}
	out := NewMat(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns c·m as a new matrix.
func (m *Mat) Scale(c complex128) *Mat {
	out := NewMat(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = c * m.Data[i]
	}
	return out
}

// Zero clears m in place and returns m, so hot loops can reuse one
// accumulator matrix instead of allocating per iteration.
func (m *Mat) Zero() *Mat {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// AddScaledInPlace sets m ← m + c·b in place. Each entry performs the same
// two operations (scale, then add) as Scale followed by Add, so results are
// bit-identical to the allocating path.
func (m *Mat) AddScaledInPlace(c complex128, b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: AddScaledInPlace shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += c * b.Data[i]
	}
	return m
}

// SubScaledInPlace sets m ← m − c·b in place, matching Scale-then-Sub bit
// for bit.
func (m *Mat) SubScaledInPlace(c complex128, b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: SubScaledInPlace shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] -= c * b.Data[i]
	}
	return m
}

// TraceMul returns Tr[m·b] without materializing the product. The
// accumulation order (inner sum over k skipping zero m entries, outer sum
// over rows) matches Mul followed by Trace bit for bit.
func TraceMul(m, b *Mat) complex128 {
	if m.Cols != b.Rows || m.Rows != b.Cols {
		panic("linalg: TraceMul shape mismatch")
	}
	var tr complex128
	for i := 0; i < m.Rows; i++ {
		var s complex128
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			s += a * b.At(k, i)
		}
		tr += s
	}
	return tr
}

// KronInto writes the Kronecker product a ⊗ b into out (which must be
// a.Rows·b.Rows × a.Cols·b.Cols), reusing out's storage. Identical to Kron
// including the zero-skip, after clearing out.
func KronInto(out, a, b *Mat) *Mat {
	if out.Rows != a.Rows*b.Rows || out.Cols != a.Cols*b.Cols {
		panic("linalg: KronInto shape mismatch")
	}
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			if v == 0 {
				continue
			}
			for k := 0; k < b.Rows; k++ {
				for l := 0; l < b.Cols; l++ {
					out.Set(i*b.Rows+k, j*b.Cols+l, v*b.At(k, l))
				}
			}
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMat(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m·v.
func (m *Mat) MulVec(v Vec) Vec {
	if m.Cols != len(v) {
		panic("linalg: MulVec shape mismatch")
	}
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Dagger returns the conjugate transpose m†.
func (m *Mat) Dagger() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// Kron returns the Kronecker product m ⊗ b.
func (m *Mat) Kron(b *Mat) *Mat {
	out := NewMat(m.Rows*b.Rows, m.Cols*b.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a := m.At(i, j)
			if a == 0 {
				continue
			}
			for k := 0; k < b.Rows; k++ {
				for l := 0; l < b.Cols; l++ {
					out.Set(i*b.Rows+k, j*b.Cols+l, a*b.At(k, l))
				}
			}
		}
	}
	return out
}

// Trace returns Σ m_ii. It panics for non-square matrices.
func (m *Mat) Trace() complex128 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	var s complex128
	for i := 0; i < m.Rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// IsHermitian reports whether m equals its conjugate transpose within tol.
func (m *Mat) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// IsUnitary reports whether m†·m ≈ I within tol.
func (m *Mat) IsUnitary(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	p := m.Dagger().Mul(m)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// ApproxEqual reports whether m and b agree entrywise within tol.
func (m *Mat) ApproxEqual(b *Mat, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// FrobeniusNorm returns sqrt(Σ |m_ij|²).
func (m *Mat) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%+.4f%+.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
