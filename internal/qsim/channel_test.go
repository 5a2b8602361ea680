package qsim

import (
	"math"
	"testing"
)

func TestChannelsTracePreserving(t *testing.T) {
	for _, c := range []Channel{
		Dephasing(0.5), Dephasing(0), Dephasing(1),
	} {
		if !c.Validate(1e-10) {
			t.Fatalf("channel %s is not trace preserving", c.Name)
		}
	}
}

func TestChannelProbabilityRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dephasing(1.5)
}

func TestApplyChannelPreservesValidity(t *testing.T) {
	d := DensityFromPure(GHZ(3))
	for _, c := range []Channel{Dephasing(0.25), Dephasing(0.6), Dephasing(1)} {
		out := d.ApplyChannel(1, c)
		if !out.IsValid(1e-9) {
			t.Fatalf("channel %s produced an invalid state", c.Name)
		}
	}
}

func TestDephasingKillsCoherenceKeepsPopulations(t *testing.T) {
	// |+⟩⟨+| under full dephasing becomes I/2.
	plus := FromAmplitudes([]complex128{1, 1})
	d := DensityFromPure(plus).ApplyChannel(0, Dephasing(1))
	if !d.Rho.ApproxEqual(MaximallyMixed(1).Rho, 1e-10) {
		t.Fatalf("full dephasing of |+⟩ should give I/2:\n%v", d.Rho)
	}
	// Populations of |1⟩⟨1| untouched.
	one := DensityFromPure(BasisState(1, 1)).ApplyChannel(0, Dephasing(0.7))
	if math.Abs(real(one.Rho.At(1, 1))-1) > 1e-10 {
		t.Fatal("dephasing must not change populations")
	}
}

// TestChannelNoSignaling: local noise on Bob's qubit cannot change Alice's
// statistics.
func TestChannelNoSignaling(t *testing.T) {
	d := DensityFromPure(Bell()).ApplyChannel(1, Dephasing(0.5))
	v := NoSignalingViolation(d, []int{0}, 1, Computational(), Hadamard(),
		[]Basis{Hadamard(), Hadamard()})
	if v > 1e-10 {
		t.Fatalf("noisy state signals by %v", v)
	}
}

// TestCHSHUnderDephasing: dephasing hits the CHSH correlators that rely on
// coherence; the win rate interpolates accordingly and crosses classical at
// some noise level.
func TestCHSHUnderDephasing(t *testing.T) {
	win := func(p float64) float64 {
		d := DensityFromPure(Bell()).ApplyChannel(0, Dephasing(p)).ApplyChannel(1, Dephasing(p))
		angles := [][2]float64{{0, math.Pi / 8}, {0, -math.Pi / 8}, {math.Pi / 4, math.Pi / 8}, {math.Pi / 4, -math.Pi / 8}}
		parities := []int{0, 0, 0, 1}
		var v float64
		for i, ab := range angles {
			dist := d.OutcomeDistribution([]Basis{RotatedReal(ab[0]), RotatedReal(ab[1])})
			pSame := dist[0b00] + dist[0b11]
			if parities[i] == 0 {
				v += 0.25 * pSame
			} else {
				v += 0.25 * (1 - pSame)
			}
		}
		return v
	}
	w0 := win(0)
	if math.Abs(w0-0.8535533905932737) > 1e-9 {
		t.Fatalf("noiseless dephasing run = %v", w0)
	}
	w5 := win(0.5)
	if w5 >= w0 || w5 <= 0.5 {
		t.Fatalf("dephased win rate %v should sit between 0.5 and %v", w5, w0)
	}
	// Full dephasing removes all coherence: correlators survive only in the
	// computational basis; the strategy degrades below the classical 0.75.
	w1 := win(1)
	if w1 >= 0.75 {
		t.Fatalf("fully dephased quantum strategy %v should lose to classical", w1)
	}
}

func BenchmarkApplyChannelGHZ4(b *testing.B) {
	d := DensityFromPure(GHZ(4))
	c := Dephasing(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ApplyChannel(2, c)
	}
}
