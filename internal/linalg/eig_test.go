package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestEigDiagonal(t *testing.T) {
	m := MatFromRows([][]complex128{{3, 0}, {0, 1}})
	r := EigHermitian(m)
	if math.Abs(r.Values[0]-1) > 1e-10 || math.Abs(r.Values[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues = %v", r.Values)
	}
}

func TestEigPauliX(t *testing.T) {
	x := MatFromRows([][]complex128{{0, 1}, {1, 0}})
	r := EigHermitian(x)
	if math.Abs(r.Values[0]+1) > 1e-10 || math.Abs(r.Values[1]-1) > 1e-10 {
		t.Fatalf("Pauli-X eigenvalues = %v", r.Values)
	}
}

func TestEigPauliY(t *testing.T) {
	y := MatFromRows([][]complex128{{0, -1i}, {1i, 0}})
	r := EigHermitian(y)
	if math.Abs(r.Values[0]+1) > 1e-10 || math.Abs(r.Values[1]-1) > 1e-10 {
		t.Fatalf("Pauli-Y eigenvalues = %v", r.Values)
	}
	// Complex eigenvectors must still reconstruct the matrix.
	checkReconstruction(t, y, r)
}

func TestEigReconstructionRandomHermitian(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(7)
		m := randomHermitian(n, rng)
		r := EigHermitian(m)
		checkReconstruction(t, m, r)
		// Ascending order.
		for i := 1; i < n; i++ {
			if r.Values[i] < r.Values[i-1]-1e-12 {
				t.Fatalf("eigenvalues not ascending: %v", r.Values)
			}
		}
		// Eigenvector matrix unitary.
		if !r.Vectors.IsUnitary(1e-8) {
			t.Fatal("eigenvector matrix not unitary")
		}
	}
}

func TestEigTraceEqualsSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	m := randomHermitian(6, rng)
	r := EigHermitian(m)
	var sum float64
	for _, v := range r.Values {
		sum += v
	}
	if math.Abs(sum-real(m.Trace())) > 1e-8 {
		t.Fatalf("sum of eigenvalues %v != trace %v", sum, real(m.Trace()))
	}
}

func TestEigNonHermitianPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-Hermitian input")
		}
	}()
	EigHermitian(MatFromRows([][]complex128{{0, 1}, {2, 0}}))
}

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	r := EigSym([][]float64{{2, 1}, {1, 2}})
	if math.Abs(r.Values[0]-1) > 1e-10 || math.Abs(r.Values[1]-3) > 1e-10 {
		t.Fatalf("EigSym = %v", r.Values)
	}
}

func TestMaxEigenvalueProjector(t *testing.T) {
	// A rank-1 projector has eigenvalues {0, 1}.
	v := Vec{complex(0.6, 0), complex(0.8, 0)}
	p := v.Outer(v)
	vals := EigHermitian(p).Values
	if mx := vals[len(vals)-1]; math.Abs(mx-1) > 1e-10 {
		t.Fatalf("projector max eigenvalue = %v", mx)
	}
}

func TestEigPSDOfGramMatrix(t *testing.T) {
	// Gram matrices are PSD: eigenvalues must be ≥ −tol.
	rng := rand.New(rand.NewPCG(11, 4))
	a := NewMat(5, 5)
	for i := range a.Data {
		a.Data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	g := a.Dagger().Mul(a)
	r := EigHermitian(g)
	if r.Values[0] < -1e-9 {
		t.Fatalf("Gram matrix has negative eigenvalue %v", r.Values[0])
	}
}

func checkReconstruction(t *testing.T, m *Mat, r EigResult) {
	t.Helper()
	n := m.Rows
	d := NewMat(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, complex(r.Values[i], 0))
	}
	rec := r.Vectors.Mul(d).Mul(r.Vectors.Dagger())
	if !rec.ApproxEqual(m, 1e-8) {
		t.Fatalf("V D V† != A\nA=\n%v\nrec=\n%v", m, rec)
	}
}

func randomHermitian(n int, rng *rand.Rand) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.Float64()*4-2, 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.Float64()*2-1, rng.Float64()*2-1)
			m.Set(i, j, v)
			m.Set(j, i, complex(real(v), -imag(v)))
		}
	}
	return m
}

func BenchmarkEigHermitian8(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := randomHermitian(8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigHermitian(m)
	}
}

func BenchmarkKron4x4(b *testing.B) {
	m := Identity(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Kron(m)
	}
}
