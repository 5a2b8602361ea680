package linalg

import (
	"math"
	"math/cmplx"
	"sort"
)

// EigResult holds the spectral decomposition of a Hermitian matrix:
// A = V · diag(Values) · V†, with Values ascending and eigenvector k stored in
// column k of Vectors.
type EigResult struct {
	Values  []float64
	Vectors *Mat
}

// EigHermitian computes all eigenvalues and eigenvectors of a Hermitian
// matrix using the cyclic Jacobi method with complex Givens rotations.
//
// The matrix must be Hermitian (this is checked to 1e-9 and the routine
// panics otherwise, because silently symmetrizing would hide caller bugs).
// Sizes in this repository are ≤ ~64, where Jacobi is simple, numerically
// excellent, and fast enough.
func EigHermitian(a *Mat) EigResult {
	if a.Rows != a.Cols {
		panic("linalg: EigHermitian needs a square matrix")
	}
	if !a.IsHermitian(1e-9) {
		panic("linalg: EigHermitian called on a non-Hermitian matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)
	jacobi(w, v)

	res := EigResult{Values: make([]float64, n), Vectors: NewMat(n, n)}
	type pair struct {
		val float64
		col int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{real(w.At(i, i)), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val < pairs[j].val })
	for k, pr := range pairs {
		res.Values[k] = pr.val
		for i := 0; i < n; i++ {
			res.Vectors.Set(i, k, v.At(i, pr.col))
		}
	}
	return res
}

// EigHermitian2Into is EigHermitian for a 2×2 matrix without allocating:
// w and v are caller-owned 2×2 buffers. It runs the same Jacobi sweeps on
// a copy of a in w and orders the eigenpairs as EigHermitian's sort does —
// two values swap only when the second is smaller, so ties keep their
// columns — and so returns the eigenvalues ascending, with eigenvector k in
// column k of v, bit for bit as EigHermitian(a) returns them.
func EigHermitian2Into(a, w, v *Mat) [2]float64 {
	if a.Rows != 2 || a.Cols != 2 || w.Rows != 2 || w.Cols != 2 || v.Rows != 2 || v.Cols != 2 {
		panic("linalg: EigHermitian2Into needs 2×2 matrices")
	}
	if !a.IsHermitian(1e-9) {
		panic("linalg: EigHermitian2Into called on a non-Hermitian matrix")
	}
	copy(w.Data, a.Data)
	v.Data[0], v.Data[1], v.Data[2], v.Data[3] = 1, 0, 0, 1
	jacobi(w, v)
	lo, hi := real(w.At(0, 0)), real(w.At(1, 1))
	if hi < lo {
		lo, hi = hi, lo
		v.Data[0], v.Data[1] = v.Data[1], v.Data[0]
		v.Data[2], v.Data[3] = v.Data[3], v.Data[2]
	}
	return [2]float64{lo, hi}
}

// jacobi runs the cyclic Jacobi sweeps of EigHermitian: it diagonalizes the
// Hermitian matrix w in place and accumulates the rotations into v, which
// enters as the identity and leaves with the eigenvector of w(k,k) in
// column k.
func jacobi(w, v *Mat) {
	n := w.Rows
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-14*(1+w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if cmplx.Abs(apq) < 1e-300 {
					continue
				}
				// Phase so the pivot becomes real: apq = |apq|·e^{iφ}.
				absApq := cmplx.Abs(apq)
				phase := apq / complex(absApq, 0)
				app := real(w.At(p, p))
				aqq := real(w.At(q, q))

				// Rotation angle θ from tan(2θ) = 2|apq| / (app − aqq).
				var theta float64
				if app == aqq {
					theta = math.Pi / 4
				} else {
					theta = 0.5 * math.Atan2(2*absApq, app-aqq)
				}
				c := complex(math.Cos(theta), 0)
				s := complex(math.Sin(theta), 0) * phase

				applyRotation(w, v, p, q, c, s)
			}
		}
	}
}

// applyRotation performs the two-sided complex Jacobi update on w and the
// one-sided update on the accumulated eigenvector matrix v, for pivot (p,q)
// with rotation parameters c (real, as complex) and s (complex):
//
//	new_p =  c·col_p + conj(s)·col_q
//	new_q = −s·col_p + c·col_q
func applyRotation(w, v *Mat, p, q int, c, s complex128) {
	n := w.Rows
	sc := cmplx.Conj(s)
	// Right multiplication: columns p, q of w.
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip+sc*wiq)
		w.Set(i, q, -s*wip+c*wiq)
	}
	// Left multiplication by the dagger: rows p, q of w.
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj+s*wqj)
		w.Set(q, j, -sc*wpj+c*wqj)
	}
	// Accumulate eigenvectors (columns of v transform like columns of w).
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip+sc*viq)
		v.Set(i, q, -s*vip+c*viq)
	}
}

func offDiagNorm(m *Mat) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i == j {
				continue
			}
			a := cmplx.Abs(m.At(i, j))
			s += a * a
		}
	}
	return math.Sqrt(s)
}

// EigSym computes the spectral decomposition of a real symmetric matrix given
// as row-major float64 data. It is a convenience wrapper over EigHermitian.
func EigSym(a [][]float64) EigResult {
	n := len(a)
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		if len(a[i]) != n {
			panic("linalg: EigSym needs a square matrix")
		}
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(a[i][j], 0))
		}
	}
	return EigHermitian(m)
}
