package linalg

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestIdentityMul(t *testing.T) {
	m := MatFromRows([][]complex128{{1, 2i}, {3, 4}})
	if !Identity(2).Mul(m).ApproxEqual(m, tol) {
		t.Fatal("I·m != m")
	}
	if !m.Mul(Identity(2)).ApproxEqual(m, tol) {
		t.Fatal("m·I != m")
	}
}

func TestMulKnown(t *testing.T) {
	a := MatFromRows([][]complex128{{1, 2}, {3, 4}})
	b := MatFromRows([][]complex128{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := MatFromRows([][]complex128{{19, 22}, {43, 50}})
	if !got.ApproxEqual(want, tol) {
		t.Fatalf("Mul = %v", got)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMat(2, 3).Mul(NewMat(2, 2))
}

func TestDaggerInvolution(t *testing.T) {
	m := MatFromRows([][]complex128{{1 + 1i, 2}, {3i, 4 - 2i}})
	if !m.Dagger().Dagger().ApproxEqual(m, tol) {
		t.Fatal("dagger not an involution")
	}
	// (AB)† = B†A†
	a := MatFromRows([][]complex128{{1, 2i}, {0, 1}})
	ab := a.Mul(m)
	if !ab.Dagger().ApproxEqual(m.Dagger().Mul(a.Dagger()), tol) {
		t.Fatal("(AB)† != B†A†")
	}
}

func TestKronDimensionsAndValues(t *testing.T) {
	a := MatFromRows([][]complex128{{1, 2}, {3, 4}})
	b := MatFromRows([][]complex128{{0, 1}, {1, 0}})
	k := a.Kron(b)
	if k.Rows != 4 || k.Cols != 4 {
		t.Fatalf("Kron dims %dx%d", k.Rows, k.Cols)
	}
	// Top-left 2x2 block should be 1·b.
	if cmplx.Abs(k.At(0, 1)-1) > tol || cmplx.Abs(k.At(1, 0)-1) > tol {
		t.Fatal("Kron top-left block wrong")
	}
	// Block (0,1) should be 2·b.
	if cmplx.Abs(k.At(0, 3)-2) > tol {
		t.Fatal("Kron block scaling wrong")
	}
}

func TestKronMixedProductProperty(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	a := MatFromRows([][]complex128{{1, 1i}, {0, 2}})
	b := MatFromRows([][]complex128{{2, 0}, {1, 1}})
	c := MatFromRows([][]complex128{{0, 1}, {1, 0}})
	d := MatFromRows([][]complex128{{1, 2}, {3, 4}})
	lhs := a.Kron(b).Mul(c.Kron(d))
	rhs := a.Mul(c).Kron(b.Mul(d))
	if !lhs.ApproxEqual(rhs, tol) {
		t.Fatal("mixed-product property fails")
	}
}

func TestTrace(t *testing.T) {
	m := MatFromRows([][]complex128{{1, 99}, {98, 2i}})
	if cmplx.Abs(m.Trace()-(1+2i)) > tol {
		t.Fatalf("Trace = %v", m.Trace())
	}
}

func TestTraceCyclicProperty(t *testing.T) {
	a := MatFromRows([][]complex128{{1, 2i}, {3, 4}})
	b := MatFromRows([][]complex128{{0, 1}, {1i, 2}})
	if cmplx.Abs(a.Mul(b).Trace()-b.Mul(a).Trace()) > tol {
		t.Fatal("Tr(AB) != Tr(BA)")
	}
}

func TestIsHermitian(t *testing.T) {
	h := MatFromRows([][]complex128{{2, 1 - 1i}, {1 + 1i, 3}})
	if !h.IsHermitian(tol) {
		t.Fatal("Hermitian matrix misclassified")
	}
	nh := MatFromRows([][]complex128{{2, 1}, {2, 3}})
	if nh.IsHermitian(tol) {
		t.Fatal("non-Hermitian matrix misclassified")
	}
	if NewMat(2, 3).IsHermitian(tol) {
		t.Fatal("non-square matrix cannot be Hermitian")
	}
}

func TestIsUnitary(t *testing.T) {
	r := complex(1/math.Sqrt2, 0)
	h := MatFromRows([][]complex128{{r, r}, {r, -r}})
	if !h.IsUnitary(tol) {
		t.Fatal("Hadamard should be unitary")
	}
	if MatFromRows([][]complex128{{1, 1}, {0, 1}}).IsUnitary(tol) {
		t.Fatal("shear is not unitary")
	}
}

func TestMulVec(t *testing.T) {
	m := MatFromRows([][]complex128{{0, 1}, {1, 0}})
	v := Vec{3, 4i}
	got := m.MulVec(v)
	if cmplx.Abs(got[0]-4i) > tol || cmplx.Abs(got[1]-3) > tol {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := MatFromRows([][]complex128{{1, 2}, {3, 4}})
	b := a.Scale(2)
	if !b.Sub(a).ApproxEqual(a, tol) {
		t.Fatal("2a - a != a")
	}
	if !a.Add(a).ApproxEqual(b, tol) {
		t.Fatal("a + a != 2a")
	}
}

func TestFrobeniusAndMaxAbs(t *testing.T) {
	m := MatFromRows([][]complex128{{3, 0}, {0, 4}})
	if math.Abs(m.FrobeniusNorm()-5) > tol {
		t.Fatalf("frobenius = %v", m.FrobeniusNorm())
	}
	if math.Abs(m.MaxAbs()-4) > tol {
		t.Fatalf("maxabs = %v", m.MaxAbs())
	}
}

func TestTransposeVsDagger(t *testing.T) {
	// The dagger is the transpose with every entry conjugated.
	m := MatFromRows([][]complex128{{1i, 2}, {3, 4i}})
	dg := m.Dagger()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dg.At(i, j) != cmplx.Conj(m.At(j, i)) {
				t.Fatalf("dagger(%d,%d) = %v, want conj(m(%d,%d)) = %v", i, j, dg.At(i, j), j, i, cmplx.Conj(m.At(j, i)))
			}
		}
	}
	if cmplx.Abs(dg.At(0, 0)+1i) > tol {
		t.Fatal("dagger must conjugate")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		a1, a2, a3, a4 = squash(a1), squash(a2), squash(a3), squash(a4)
		b1, b2, b3, b4 = squash(b1), squash(b2), squash(b3), squash(b4)
		a := MatFromRows([][]complex128{{complex(a1, 0), complex(a2, 0)}, {complex(a3, 0), complex(a4, 0)}})
		b := MatFromRows([][]complex128{{complex(b1, 0), complex(b2, 0)}, {complex(b3, 0), complex(b4, 0)}})
		c := MatFromRows([][]complex128{{1, 2}, {3, 4}})
		scale := 1 + a.MaxAbs()*b.MaxAbs()*c.MaxAbs()
		return a.Mul(b).Mul(c).Sub(a.Mul(b.Mul(c))).MaxAbs() < 1e-6*scale
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
