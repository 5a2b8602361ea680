package qsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// Property-based tests over random states, bases and channels: the physical
// laws that must hold for every instance.

func randomPureState(seed uint64, nRaw uint8) *State {
	n := 2 + int(nRaw%3) // 2..4 qubits
	rng := xrand.New(seed, 0x57a7e)
	amp := make([]complex128, 1<<n)
	for i := range amp {
		amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return FromAmplitudes(amp)
}

func randomBasis(rng *xrand.RNG) Basis {
	return FromVector([]complex128{
		complex(rng.NormFloat64(), rng.NormFloat64()),
		complex(rng.NormFloat64(), rng.NormFloat64()),
	})
}

func TestQuickDistributionsNormalized(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		s := randomPureState(seed, nRaw)
		rng := xrand.New(seed, 1)
		bases := make([]Basis, s.NumQubits)
		for i := range bases {
			bases[i] = randomBasis(rng)
		}
		dist := s.OutcomeDistribution(bases)
		var sum float64
		for _, p := range dist {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartialTraceValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8, qRaw uint8) bool {
		s := randomPureState(seed, nRaw)
		d := DensityFromPure(s)
		q := int(qRaw) % s.NumQubits
		r := d.PartialTrace(q)
		return r.IsValid(1e-8) && r.NumQubits == s.NumQubits-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnitaryPreservesDistSum(t *testing.T) {
	f := func(seed uint64, nRaw uint8, theta float64) bool {
		s := randomPureState(seed, nRaw)
		th := math.Mod(theta, math.Pi)
		if math.IsNaN(th) {
			th = 0.3
		}
		rng := xrand.New(seed, 2)
		s.ApplyUnitary1(rng.IntN(s.NumQubits), RotatedReal(th/2).matrix())
		return s.NormError() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChannelPreservesValidity(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pRaw float64) bool {
		s := randomPureState(seed, nRaw)
		d := DensityFromPure(s)
		p := math.Abs(math.Mod(pRaw, 1))
		if math.IsNaN(p) {
			p = 0.3
		}
		rng := xrand.New(seed, 3)
		out := d.ApplyChannel(rng.IntN(d.NumQubits), Dephasing(p))
		return out.IsValid(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNoSignalingUniversal(t *testing.T) {
	// The deepest property: NO random state, noise or basis choice lets one
	// party's statistics depend on another's measurement setting.
	f := func(seed uint64, nRaw uint8, pRaw float64) bool {
		s := randomPureState(seed, nRaw)
		d := DensityFromPure(s)
		p := math.Abs(math.Mod(pRaw, 1))
		if math.IsNaN(p) {
			p = 0.2
		}
		rng := xrand.New(seed, 4)
		d = d.ApplyChannel(rng.IntN(d.NumQubits), Dephasing(p))

		remote := rng.IntN(d.NumQubits)
		var observers []int
		for q := 0; q < d.NumQubits; q++ {
			if q != remote {
				observers = append(observers, q)
			}
		}
		fixed := make([]Basis, d.NumQubits)
		for i := range fixed {
			fixed[i] = randomBasis(rng)
		}
		v := NoSignalingViolation(d, observers, remote, randomBasis(rng), randomBasis(rng), fixed)
		return v < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMeasurementIdempotent(t *testing.T) {
	// Measuring a qubit twice in the same basis always repeats the outcome.
	f := func(seed uint64, nRaw uint8) bool {
		s := randomPureState(seed, nRaw)
		rng := xrand.New(seed, 5)
		q := rng.IntN(s.NumQubits)
		b := randomBasis(rng)
		o1 := s.MeasureQubit(q, b, rng)
		o2 := s.MeasureQubit(q, b, rng)
		return o1 == o2 && s.NormError() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPurityBounds(t *testing.T) {
	// 1/2^n ≤ Tr ρ² ≤ 1 for every state we can construct.
	f := func(seed uint64, nRaw uint8, pRaw float64) bool {
		s := randomPureState(seed, nRaw)
		d := DensityFromPure(s)
		p := math.Abs(math.Mod(pRaw, 1))
		if math.IsNaN(p) {
			p = 0.5
		}
		d = d.ApplyChannel(0, Dephasing(p))
		pur := d.Purity()
		return pur <= 1+1e-9 && pur >= 1/float64(int(1)<<d.NumQubits)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
