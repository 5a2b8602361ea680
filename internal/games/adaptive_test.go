package games

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qsim"
	"repro/internal/xrand"
)

// bellState is the shared Φ⁺ pair the see-saw tests play on.
func bellState() *qsim.Density { return qsim.DensityFromPure(qsim.Bell()) }

func TestSeeSawOnStateRecoversBellResult(t *testing.T) {
	// On a perfect Bell pair the generalized see-saw must reproduce the
	// Bell-specific see-saw: cos²(π/8) for CHSH.
	rng := xrand.New(130, 1)
	g := NewCHSH()
	res := g.SeeSawOnState(qsim.DensityFromPure(qsim.Bell()), rng)
	if math.Abs(res.Value-chshQuantum) > 1e-6 {
		t.Fatalf("Bell-state see-saw %v, want %v", res.Value, chshQuantum)
	}
}

func TestSeeSawOnWernerMatchesClosedForm(t *testing.T) {
	// Werner noise is isotropic: re-optimization cannot beat the closed
	// form V·cos²(π/8) + (1−V)/2 (the paper's angles stay optimal).
	rng := xrand.New(131, 1)
	g := NewCHSH()
	for _, v := range []float64{0.9, 0.75} {
		res := g.SeeSawOnState(qsim.Werner(v), rng)
		want := v*chshQuantum + (1-v)/2
		if math.Abs(res.Value-want) > 1e-6 {
			t.Fatalf("V=%v: see-saw %v, closed form %v", v, res.Value, want)
		}
	}
}

// TestAdaptiveGainUnderDephasing is the payoff: dephasing is anisotropic
// (Z-correlations survive, X-correlations decay), so the noiseless-optimal
// angles are no longer optimal — re-optimizing recovers real value.
func TestAdaptiveGainUnderDephasing(t *testing.T) {
	rng := xrand.New(132, 1)
	g := NewCHSH()
	rho := qsim.DensityFromPure(qsim.Bell()).
		ApplyChannel(0, qsim.Dephasing(0.6)).
		ApplyChannel(1, qsim.Dephasing(0.6))

	fixed, adapted := AdaptiveGain(g, rho, OptimalCHSHAngles(), rng)
	if adapted < fixed+0.005 {
		t.Fatalf("adaptation gained only %v (fixed %v, adapted %v)",
			adapted-fixed, fixed, adapted)
	}
	// Physics bound still holds.
	if adapted > chshQuantum+1e-9 {
		t.Fatalf("adapted value %v exceeds the Tsirelson bound", adapted)
	}
	// And the adapted behavior must be physical.
}

func TestAdaptiveGainZeroForWerner(t *testing.T) {
	// Isotropic noise: nothing to adapt to. Gain ≈ 0.
	rng := xrand.New(133, 1)
	g := NewCHSH()
	fixed, adapted := AdaptiveGain(g, qsim.Werner(0.85), OptimalCHSHAngles(), rng)
	if adapted-fixed > 1e-6 {
		t.Fatalf("Werner adaptation gain %v should be ~0", adapted-fixed)
	}
	if fixed-adapted > 1e-6 {
		t.Fatalf("see-saw fell below the fixed angles: %v vs %v", adapted, fixed)
	}
}

func TestConditionalOperatorsConsistent(t *testing.T) {
	// Tr[(A⊗B)ρ] computed three ways must agree for random Hermitian A, B.
	rng := xrand.New(134, 1)
	rho := qsim.DensityFromPure(qsim.FromAmplitudes([]complex128{0.6, 0.2i, -0.3, 0.7})).ApplyChannel(1, qsim.Dephasing(0.3))
	for trial := 0; trial < 10; trial++ {
		a := randomProjector(rng)
		b := randomProjector(rng)
		direct := real(rho.Rho.Mul(a.Kron(b)).Trace())
		viaAlice := real(a.Mul(conditionalOnAliceInto(linalg.NewMat(2, 2), rho, b)).Trace())
		viaBob := real(b.Mul(conditionalOnBobInto(linalg.NewMat(2, 2), rho, a)).Trace())
		if math.Abs(direct-viaAlice) > 1e-10 || math.Abs(direct-viaBob) > 1e-10 {
			t.Fatalf("trial %d: direct %v, viaAlice %v, viaBob %v",
				trial, direct, viaAlice, viaBob)
		}
	}
}

func TestSeeSawOnStateValidation(t *testing.T) {
	rng := xrand.New(135, 1)
	g := NewCHSH()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong qubit count")
		}
	}()
	g.SeeSawOnState(qsim.DensityFromPure(qsim.GHZ(3)), rng)
}

func TestSeeSawReachesCHSHQuantumValue(t *testing.T) {
	rng := xrand.New(30, 1)
	g := NewCHSH()
	res := g.SeeSawOnState(bellState(), rng)
	if math.Abs(res.Value-chshQuantum) > 1e-6 {
		t.Fatalf("see-saw CHSH value = %v, want %v", res.Value, chshQuantum)
	}
}

func TestSeeSawNeverBelowClassicalOnXORGames(t *testing.T) {
	rng := xrand.New(31, 1)
	for trial := 0; trial < 5; trial++ {
		g := RandomGraphXORGame(4, 0.5, rng)
		c := g.ClassicalValue()
		res := g.SeeSawOnState(bellState(), rng)
		// A 2-qubit see-saw may not reach the full Tsirelson optimum of a
		// large game, but it should never fall meaningfully below the
		// classical value (classical strategies are realizable with trivial
		// projectors).
		if res.Value < c.Value-0.02 {
			t.Fatalf("see-saw %v far below classical %v", res.Value, c.Value)
		}
	}
}

func TestSeeSawBehaviorPhysical(t *testing.T) {
	rng := xrand.New(32, 1)
	g := NewCHSH()
	rho := bellState()
	res := g.SeeSawOnState(rho, rng)
	p := BehaviorOnState(rho, res.AliceProj, res.BobProj)
	if v := VerifyBehaviorNoSignaling(p); v > 1e-9 {
		t.Fatalf("see-saw behavior signals by %v", v)
	}
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			var sum float64
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if p[x][y][a][b] < -1e-9 {
						t.Fatalf("negative probability %v", p[x][y][a][b])
					}
					sum += p[x][y][a][b]
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("behavior sums to %v", sum)
			}
		}
	}
}

func TestSeeSawTsirelsonBound(t *testing.T) {
	// No see-saw run on CHSH may exceed cos²(π/8): quantum mechanics
	// forbids it, and our simulator implements quantum mechanics.
	rng := xrand.New(33, 1)
	g := NewCHSH()
	for trial := 0; trial < 5; trial++ {
		res := g.SeeSawOnState(bellState(), rng)
		if res.Value > chshQuantum+1e-9 {
			t.Fatalf("see-saw value %v exceeds the Tsirelson bound", res.Value)
		}
	}
}

func TestExactBellValueOptimalAngles(t *testing.T) {
	g := NewCHSH()
	a := OptimalCHSHAngles()
	if v := g.ValueOn(bellState(), a); math.Abs(v-chshQuantum) > tol {
		t.Fatalf("ValueOn(Bell) = %v, want %v", v, chshQuantum)
	}
	// Werner(V) scales the bias: V·q + (1−V)/2.
	for _, vis := range []float64{1, 0.9, 0.7} {
		want := vis*chshQuantum + (1-vis)/2
		if v := g.ValueOn(qsim.Werner(vis), a); math.Abs(v-want) > tol {
			t.Fatalf("ValueOn(Werner(%v)) = %v, want %v", vis, v, want)
		}
	}
}

func TestVerifyBehaviorNoSignalingDetectsSignaling(t *testing.T) {
	// A deliberately signaling behavior: Bob outputs Alice's input.
	p := make([][][][]float64, 2)
	for x := 0; x < 2; x++ {
		p[x] = make([][][]float64, 1)
		p[x][0] = [][]float64{{0, 0}, {0, 0}}
		p[x][0][0][x] = 1 // a=0 always; b = x
	}
	if v := VerifyBehaviorNoSignaling(p); v < 0.9 {
		t.Fatalf("signaling behavior not detected: %v", v)
	}
}

func BenchmarkSeeSawOnState(b *testing.B) {
	rng := xrand.New(1, 31)
	g := NewCHSH()
	rho := qsim.Werner(0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SeeSawOnState(rho, rng)
	}
}

// TestPositiveEigenprojectorMatchesAllocatingOracle: the best response the
// see-saw computes in its own buffers must be the allocating original's
// projector bit for bit, −0 included, on random operators (Hermitian or
// not: both hermitize first), on degenerate spectra and on the zero matrix.
// The buffers are reused across cases, as a see-saw run reuses them.
func TestPositiveEigenprojectorMatchesAllocatingOracle(t *testing.T) {
	rng := xrand.New(136, 1)
	negZero := math.Copysign(0, -1)
	cases := []*linalg.Mat{
		linalg.NewMat(2, 2),
		linalg.MatFromRows([][]complex128{{complex(negZero, negZero), complex(negZero, 0)}, {complex(0, negZero), complex(negZero, negZero)}}),
		linalg.Identity(2),
		linalg.Identity(2).Scale(-1),
		linalg.Identity(2).Scale(1e-300),
		linalg.MatFromRows([][]complex128{{1, 0}, {0, -1}}),
		linalg.MatFromRows([][]complex128{{-1, 0}, {0, 1}}),
		linalg.MatFromRows([][]complex128{{0, 1}, {1, 0}}),
		linalg.MatFromRows([][]complex128{{0, -1i}, {1i, 0}}),
		linalg.MatFromRows([][]complex128{{1, 1}, {1, 1}}),
		linalg.MatFromRows([][]complex128{{0.5, 0.5i}, {-0.5i, 0.5}}),
		linalg.MatFromRows([][]complex128{{2, 0}, {0, 2}}),
		linalg.MatFromRows([][]complex128{{0, 0}, {0, 1}}),
		linalg.MatFromRows([][]complex128{{1, 3}, {-1, 0.25}}),
	}
	for i := 0; i < 2000; i++ {
		m := linalg.NewMat(2, 2)
		for k := range m.Data {
			m.Data[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if i%2 == 0 {
			m = m.Add(m.Dagger())
		}
		if i%7 == 0 {
			m.Data[1], m.Data[2] = 0, 0 // diagonal: no rotation at all
		}
		if i%11 == 0 {
			m.Data[3] = m.Data[0] // equal diagonal: the θ = π/4 branch
		}
		cases = append(cases, m)
	}
	sc := newEigenScratch()
	out := linalg.NewMat(2, 2)
	for i, h := range cases {
		want := positiveEigenprojectorOracle(h)
		sc.positiveEigenprojector(out, h)
		for k := range want.Data {
			w, g := want.Data[k], out.Data[k]
			if math.Float64bits(real(w)) != math.Float64bits(real(g)) || math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
				t.Fatalf("case %d (%v): entry %d = %v, oracle %v", i, h.Data, k, g, w)
			}
		}
	}
	if avg := testing.AllocsPerRun(100, func() { sc.positiveEigenprojector(out, cases[20]) }); avg != 0 {
		t.Fatalf("in-place projector allocates %v per call", avg)
	}
}
