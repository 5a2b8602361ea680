package qsim

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/xrand"
)

const tol = 1e-10

func TestBasisStateProbabilities(t *testing.T) {
	s := BasisState(0b10, 2)
	if math.Abs(s.Probability(0b10)-1) > tol {
		t.Fatal("basis state must have unit probability on its index")
	}
	if s.Probability(0b01) != 0 {
		t.Fatal("other outcomes must have zero probability")
	}
	if s.NormError() > tol {
		t.Fatal("basis state not normalized")
	}
}

func TestBellStateComputationalCorrelation(t *testing.T) {
	s := Bell()
	dist := s.OutcomeDistribution([]Basis{Computational(), Computational()})
	if math.Abs(dist[0b00]-0.5) > tol || math.Abs(dist[0b11]-0.5) > tol {
		t.Fatalf("Bell dist = %v", dist)
	}
	if dist[0b01] > tol || dist[0b10] > tol {
		t.Fatal("Bell state should never give mismatched computational outcomes")
	}
}

// TestPaperSecondServerBasis reproduces the §2 worked example: after the
// first server measures 0 in the computational basis, the second server
// measuring in {1/√3|0⟩+√2/√3|1⟩, √2/√3|0⟩−1/√3|1⟩} sees 0 with probability
// 1/3 and 1 with probability 2/3 (and reversed if the first measured 1).
func TestPaperSecondServerBasis(t *testing.T) {
	b2 := FromVector(linalg.Vec{
		complex(1/math.Sqrt(3), 0),
		complex(math.Sqrt(2)/math.Sqrt(3), 0),
	})
	dist := Bell().OutcomeDistribution([]Basis{Computational(), b2})
	// P(first=0) = 1/2; conditional P(second=0 | first=0) = 1/3.
	p00 := dist[0b00]
	p01 := dist[0b01]
	p10 := dist[0b10]
	p11 := dist[0b11]
	if math.Abs(p00-0.5*1.0/3) > tol || math.Abs(p01-0.5*2.0/3) > tol {
		t.Fatalf("first=0 branch wrong: %v %v", p00, p01)
	}
	if math.Abs(p10-0.5*2.0/3) > tol || math.Abs(p11-0.5*1.0/3) > tol {
		t.Fatalf("first=1 branch wrong: %v %v", p10, p11)
	}
}

// TestBellRotatedCorrelation checks E[a=b] = cos²(θA−θB) for real rotated
// bases on Φ+ — the identity every CHSH computation relies on.
func TestBellRotatedCorrelation(t *testing.T) {
	angles := []struct{ a, b float64 }{
		{0, 0}, {0, math.Pi / 8}, {math.Pi / 4, -math.Pi / 8}, {1.1, 0.3},
	}
	for _, ang := range angles {
		dist := Bell().OutcomeDistribution([]Basis{RotatedReal(ang.a), RotatedReal(ang.b)})
		pSame := dist[0b00] + dist[0b11]
		want := math.Cos(ang.a-ang.b) * math.Cos(ang.a-ang.b)
		if math.Abs(pSame-want) > tol {
			t.Fatalf("θA=%v θB=%v: P(same)=%v, want %v", ang.a, ang.b, pSame, want)
		}
	}
}

func TestBellPhiFourStates(t *testing.T) {
	states := []*State{BellPhi(false, false), BellPhi(false, true), BellPhi(true, false), BellPhi(true, true)}
	// The four Bell states are mutually orthogonal and normalized.
	for i, a := range states {
		if a.NormError() > tol {
			t.Fatalf("Bell state %d not normalized", i)
		}
		for j, b := range states {
			ip := a.InnerProduct(b)
			if i == j {
				if math.Abs(real(ip)-1) > tol {
					t.Fatalf("state %d self-overlap %v", i, ip)
				}
			} else if math.Abs(real(ip)) > tol || math.Abs(imag(ip)) > tol {
				t.Fatalf("states %d,%d not orthogonal: %v", i, j, ip)
			}
		}
	}
	if BellPhi(false, false).Fidelity(Bell()) < 1-tol {
		t.Fatal("BellPhi(false,false) must be Φ+")
	}
}

func TestGHZCorrelations(t *testing.T) {
	g := GHZ(3)
	dist := g.OutcomeDistribution([]Basis{Computational(), Computational(), Computational()})
	if math.Abs(dist[0b000]-0.5) > tol || math.Abs(dist[0b111]-0.5) > tol {
		t.Fatalf("GHZ computational dist = %v", dist)
	}
	var other float64
	for i, p := range dist {
		if i != 0 && i != 7 {
			other += p
		}
	}
	if other > tol {
		t.Fatal("GHZ must only give all-0 or all-1")
	}
}

// TestGHZMerminCorrelation verifies the GHZ paradox correlations used by the
// Mermin game: measuring XXX on GHZ always gives product +1; measuring
// XYY, YXY, YYX always gives product −1.
func TestGHZMerminCorrelation(t *testing.T) {
	x := Hadamard()    // X eigenbasis
	y := yEigenbasis() // Y eigenbasis
	check := func(bases []Basis, wantProd float64) {
		t.Helper()
		dist := GHZ(3).OutcomeDistribution(bases)
		var e float64
		for o, p := range dist {
			parity := (o>>2 ^ o>>1 ^ o) & 1
			if parity == 0 {
				e += p
			} else {
				e -= p
			}
		}
		if math.Abs(e-wantProd) > tol {
			t.Fatalf("GHZ product expectation = %v, want %v", e, wantProd)
		}
	}
	check([]Basis{x, x, x}, 1)
	check([]Basis{x, y, y}, -1)
	check([]Basis{y, x, y}, -1)
	check([]Basis{y, y, x}, -1)
}

func yEigenbasis() Basis {
	// Eigenvectors of Pauli-Y: (|0⟩ ± i|1⟩)/√2.
	r := complex(1/math.Sqrt2, 0)
	u := linalg.NewMat(2, 2)
	u.Set(0, 0, r)
	u.Set(1, 0, complex(0, 1/math.Sqrt2))
	u.Set(0, 1, r)
	u.Set(1, 1, complex(0, -1/math.Sqrt2))
	return NewBasis(u)
}

func TestWStateSingleExcitation(t *testing.T) {
	w := W(3)
	dist := w.OutcomeDistribution([]Basis{Computational(), Computational(), Computational()})
	for o, p := range dist {
		ones := 0
		for b := 0; b < 3; b++ {
			ones += (o >> b) & 1
		}
		if ones == 1 {
			if math.Abs(p-1.0/3) > tol {
				t.Fatalf("W outcome %03b prob %v", o, p)
			}
		} else if p > tol {
			t.Fatalf("W outcome %03b should be impossible, got %v", o, p)
		}
	}
}

func TestTensorProduct(t *testing.T) {
	s := BasisState(1, 1).Tensor(BasisState(0, 1))
	if s.NumQubits != 2 || math.Abs(s.Probability(0b10)-1) > tol {
		t.Fatal("Tensor of |1⟩⊗|0⟩ should be |10⟩")
	}
}

// (O⊗O)|Φ⁺⟩ = |Φ⁺⟩ for every real orthogonal O — the invariance behind
// "only the angle difference matters" in the CHSH strategies — while a
// rotation by θ on one qubit alone leaves fidelity cos²θ.
func TestRealRotationPairFixesBell(t *testing.T) {
	for _, theta := range []float64{math.Pi / 4, math.Pi / 8, 1} {
		u := RotatedReal(theta).matrix()
		s := Bell()
		s.ApplyUnitary1(0, u)
		if c := math.Cos(theta); math.Abs(s.Fidelity(Bell())-c*c) > tol {
			t.Fatalf("θ=%v on qubit 0: fidelity %v, want cos²θ = %v", theta, s.Fidelity(Bell()), c*c)
		}
		s.ApplyUnitary1(1, u)
		if s.Fidelity(Bell()) < 1-tol {
			t.Fatalf("θ=%v on both qubits: fidelity with Bell = %v", theta, s.Fidelity(Bell()))
		}
	}
}

func TestApplyUnitaryPreservesNorm(t *testing.T) {
	rng := xrand.New(3, 1)
	s := GHZ(4)
	for i := 0; i < 20; i++ {
		k := rng.IntN(4)
		s.ApplyUnitary1(k, RotatedReal(rng.Float64()*math.Pi/2).matrix())
		if s.NormError() > 1e-9 {
			t.Fatalf("norm drifted after %d unitaries: %v", i+1, s.NormError())
		}
	}
}

func TestMeasureQubitCollapse(t *testing.T) {
	rng := xrand.New(5, 2)
	for trial := 0; trial < 50; trial++ {
		s := Bell()
		o1 := s.MeasureQubit(0, Computational(), rng)
		// After measuring qubit 0, qubit 1 must give the same outcome with
		// certainty.
		o2 := s.MeasureQubit(1, Computational(), rng)
		if o1 != o2 {
			t.Fatal("Bell collapse broken: outcomes differ")
		}
	}
}

func TestMeasureQubitRepeatable(t *testing.T) {
	// Measuring the same qubit twice in the same basis gives the same answer.
	rng := xrand.New(6, 2)
	for trial := 0; trial < 30; trial++ {
		s := GHZ(3)
		b := RotatedReal(0.7)
		o1 := s.MeasureQubit(1, b, rng)
		o2 := s.MeasureQubit(1, b, rng)
		if o1 != o2 {
			t.Fatal("repeated measurement changed outcome")
		}
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	rng := xrand.New(8, 4)
	bases := []Basis{RotatedReal(0.3), RotatedReal(-0.9)}
	s := Bell()
	dist := s.OutcomeDistribution(bases)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[s.SampleOutcomes(bases, rng)]++
	}
	for o, p := range dist {
		got := float64(counts[o]) / trials
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("outcome %02b: sampled %v, exact %v", o, got, p)
		}
	}
}

func TestFromAmplitudesNormalizes(t *testing.T) {
	s := FromAmplitudes([]complex128{3, 0, 0, 4})
	if s.NormError() > tol {
		t.Fatal("FromAmplitudes must normalize")
	}
	if math.Abs(s.Probability(0)-9.0/25) > tol {
		t.Fatalf("prob = %v", s.Probability(0))
	}
}

func TestFromAmplitudesRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromAmplitudes([]complex128{1, 0, 0})
}

func TestGateUnitarity(t *testing.T) {
	for name, g := range map[string]*linalg.Mat{
		"X": GateX(), "Z": GateZ(),
		"RotatedReal(0.35)": RotatedReal(0.35).matrix(),
	} {
		if !g.IsUnitary(tol) {
			t.Fatalf("gate %s is not unitary", name)
		}
	}
}

func TestBasisObservable(t *testing.T) {
	// The computational-basis observable is Pauli-Z.
	if !Computational().Observable().ApproxEqual(GateZ(), tol) {
		t.Fatal("computational observable != Z")
	}
	// The Hadamard-basis observable is Pauli-X.
	if !Hadamard().Observable().ApproxEqual(GateX(), tol) {
		t.Fatal("Hadamard observable != X")
	}
}

func TestFromVectorOrthogonality(t *testing.T) {
	v := linalg.Vec{complex(0.6, 0.3), complex(0.2, -0.7)}
	b := FromVector(v)
	v0, v1 := b.Vector(0), b.Vector(1)
	if cAbs(v0.Dot(v1)) > tol {
		t.Fatal("FromVector basis vectors not orthogonal")
	}
	if math.Abs(v0.Norm()-1) > tol || math.Abs(v1.Norm()-1) > tol {
		t.Fatal("FromVector basis vectors not normalized")
	}
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func BenchmarkOutcomeDistributionBell(b *testing.B) {
	s := Bell()
	bases := []Basis{RotatedReal(0.1), RotatedReal(0.9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OutcomeDistribution(bases)
	}
}

func BenchmarkSampleOutcomesGHZ6(b *testing.B) {
	s := GHZ(6)
	bases := make([]Basis, 6)
	for i := range bases {
		bases[i] = RotatedReal(float64(i) * 0.3)
	}
	rng := xrand.New(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleOutcomes(bases, rng)
	}
}
