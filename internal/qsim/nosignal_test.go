package qsim

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestMarginalDistribution(t *testing.T) {
	dist := Bell().OutcomeDistribution([]Basis{Computational(), RotatedReal(0.7)})
	m0 := MarginalDistribution(dist, 2, []int{0})
	if math.Abs(m0[0]-0.5) > tol || math.Abs(m0[1]-0.5) > tol {
		t.Fatalf("marginal of qubit 0 = %v", m0)
	}
	m1 := MarginalDistribution(dist, 2, []int{1})
	if math.Abs(m1[0]-0.5) > tol || math.Abs(m1[1]-0.5) > tol {
		t.Fatalf("marginal of qubit 1 = %v", m1)
	}
	// Marginal over both qubits is the distribution itself.
	m01 := MarginalDistribution(dist, 2, []int{0, 1})
	for i := range dist {
		if math.Abs(m01[i]-dist[i]) > tol {
			t.Fatal("identity marginal mismatch")
		}
	}
}

// TestNoSignalingBell is the load-bearing physics check: Alice's outcome
// statistics cannot depend on Bob's basis choice — this is why entanglement
// cannot transmit information faster than light, only correlate decisions.
func TestNoSignalingBell(t *testing.T) {
	d := DensityFromPure(Bell())
	fixed := []Basis{Computational(), Computational()}
	for _, pair := range [][2]Basis{
		{Computational(), Hadamard()},
		{RotatedReal(0.3), RotatedReal(-1.2)},
		{Hadamard(), RotatedReal(math.Pi / 8)},
	} {
		v := NoSignalingViolation(d, []int{0}, 1, pair[0], pair[1], fixed)
		if v > 1e-10 {
			t.Fatalf("no-signaling violated by %v", v)
		}
	}
}

// TestNoSignalingRandomStates property-tests no-signaling over random
// entangled states and random bases: no physical state can signal.
func TestNoSignalingRandomStates(t *testing.T) {
	rng := xrand.New(13, 17)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.IntN(2) // 2- or 3-qubit systems
		amp := make([]complex128, 1<<n)
		for i := range amp {
			amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		d := DensityFromPure(FromAmplitudes(amp))
		fixed := make([]Basis, n)
		for k := range fixed {
			fixed[k] = RotatedReal(rng.Float64() * math.Pi)
		}
		remote := rng.IntN(n)
		var observers []int
		for q := 0; q < n; q++ {
			if q != remote {
				observers = append(observers, q)
			}
		}
		bA := RotatedReal(rng.Float64() * math.Pi)
		bB := FromVector([]complex128{
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
		})
		v := NoSignalingViolation(d, observers, remote, bA, bB, fixed)
		if v > 1e-9 {
			t.Fatalf("trial %d: no-signaling violated by %v", trial, v)
		}
	}
}

// TestNoSignalingWerner checks the noisy case too: mixing with noise cannot
// re-enable signaling.
func TestNoSignalingWerner(t *testing.T) {
	d := Werner(0.85)
	v := NoSignalingViolation(d, []int{0}, 1, Computational(), RotatedReal(1.0),
		[]Basis{Hadamard(), Hadamard()})
	if v > 1e-10 {
		t.Fatalf("Werner state signals: %v", v)
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	if math.Abs(TotalVariation(p, q)-0.5) > tol {
		t.Fatalf("TV = %v", TotalVariation(p, q))
	}
	if TotalVariation(p, p) != 0 {
		t.Fatal("TV(p,p) != 0")
	}
}

func TestTotalVariationMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TotalVariation([]float64{1}, []float64{0.5, 0.5})
}

// TestReductionPreMeasurement reproduces the §4.2 proof trick numerically:
// if party C of a GHZ state measures first (in ANY basis), the A–B joint
// distribution is an average over C's outcomes of bipartite states — and it
// is identical to the A–B marginal had C never measured. Three-way
// entanglement collapses to a mixture of pairwise entanglement.
func TestReductionPreMeasurement(t *testing.T) {
	d := DensityFromPure(GHZ(3))
	basesAB := []Basis{RotatedReal(0.4), RotatedReal(-0.8), Computational()}

	// Marginal of A,B with C unmeasured (basis choice for C is irrelevant
	// by no-signaling; Computational is arbitrary).
	full := d.OutcomeDistribution(basesAB)
	marginal := MarginalDistribution(full, 3, []int{0, 1})

	for i, cBasis := range []Basis{Computational(), Hadamard(), RotatedReal(1.1)} {
		// C pre-measures: mixture over C's outcomes.
		mixed := make([]float64, 4)
		for outcome := 0; outcome < 2; outcome++ {
			p := d.OutcomeProbability(2, cBasis, outcome)
			if p == 0 {
				continue
			}
			post := d.Collapse(2, cBasis, outcome)
			condFull := post.OutcomeDistribution(basesAB)
			condAB := MarginalDistribution(condFull, 3, []int{0, 1})
			for i := range mixed {
				mixed[i] += p * condAB[i]
			}
		}
		if tv := TotalVariation(marginal, mixed); tv > 1e-10 {
			t.Fatalf("C basis %d: pre-measurement changed A-B stats by %v", i, tv)
		}
	}
}
