package games

import (
	"math"
	"testing"

	"repro/internal/qsim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestXORQuantumSamplerMatchesExactValue(t *testing.T) {
	rng := xrand.New(10, 1)
	g := NewCHSH()
	q := g.QuantumValue(rng)
	s := q.QuantumSampler(1.0)
	var p stats.Proportion
	const rounds = 200000
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		p.Add(g.Wins(x, y, a, b))
	}
	if !p.Contains95(chshQuantum) {
		lo, hi := p.Wilson95()
		t.Fatalf("sampled CHSH rate %v [%v, %v] excludes cos²(π/8)", p.Rate(), lo, hi)
	}
	// And it must statistically beat the classical bound.
	lo, _ := p.Wilson95()
	if lo <= chshClassical {
		t.Fatalf("quantum sampler rate %v does not significantly beat 0.75", p.Rate())
	}
}

func TestXORQuantumSamplerBehaviorIsNoSignaling(t *testing.T) {
	rng := xrand.New(11, 1)
	g := RandomGraphXORGame(5, 0.5, rng)
	q := g.QuantumValue(rng)
	p := q.QuantumSampler(0.9).Behavior(g.NA, g.NB)
	if v := VerifyBehaviorNoSignaling(p); v > 1e-12 {
		t.Fatalf("quantum sampler behavior signals by %v", v)
	}
	// Behavior entries are valid conditional distributions.
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			var sum float64
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if p[x][y][a][b] < -1e-12 {
						t.Fatal("negative probability in behavior")
					}
					sum += p[x][y][a][b]
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("behavior at (%d,%d) sums to %v", x, y, sum)
			}
		}
	}
}

func TestXORQuantumSamplerUniformMarginals(t *testing.T) {
	// The paper stresses each party's output stays uniformly random — no
	// information leaks from input/output of one party about the other.
	rng := xrand.New(12, 1)
	g := NewCHSH()
	s := g.QuantumValue(rng).QuantumSampler(1.0)
	var aOnes, bOnes int
	const rounds = 100000
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		aOnes += a
		bOnes += b
	}
	if math.Abs(float64(aOnes)/rounds-0.5) > 0.01 {
		t.Fatalf("Alice marginal %v", float64(aOnes)/rounds)
	}
	if math.Abs(float64(bOnes)/rounds-0.5) > 0.01 {
		t.Fatalf("Bob marginal %v", float64(bOnes)/rounds)
	}
}

func TestBellSamplerExactValueCHSH(t *testing.T) {
	v := NewCHSH().ValueOn(qsim.Werner(1.0), OptimalCHSHAngles())
	if math.Abs(v-chshQuantum) > tol {
		t.Fatalf("Bell sampler exact CHSH value = %v, want %v", v, chshQuantum)
	}
}

func TestBellSamplerColocationVariant(t *testing.T) {
	v := NewColocationCHSH().ValueOn(qsim.Werner(1.0), OptimalColocationAngles())
	if math.Abs(v-chshQuantum) > tol {
		t.Fatalf("colocation Bell value = %v, want %v", v, chshQuantum)
	}
}

// TestBellSamplerAgreesWithCorrelationSampler cross-validates the two
// quantum implementations: full state-vector physics vs the analytic
// Tsirelson behavior.
func TestBellSamplerAgreesWithCorrelationSampler(t *testing.T) {
	rng := xrand.New(15, 1)
	g := NewCHSH()
	bell := NewBellSampler(OptimalCHSHAngles(), 1.0, rng)
	analytic := g.QuantumValue(rng).QuantumSampler(1.0)

	var pBell, pAnalytic stats.Proportion
	const rounds = 150000
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a1, b1 := bell.Sample(x, y, rng)
		pBell.Add(g.Wins(x, y, a1, b1))
		a2, b2 := analytic.Sample(x, y, rng)
		pAnalytic.Add(g.Wins(x, y, a2, b2))
	}
	if math.Abs(pBell.Rate()-pAnalytic.Rate()) > 0.01 {
		t.Fatalf("physics %v vs analytic %v disagree", pBell.Rate(), pAnalytic.Rate())
	}
}

// TestWernerVisibilityClosedForm: the CHSH value at visibility V is
// V·cos²(π/8) + (1−V)/2, both for the physical Werner-state sampler and the
// visibility-scaled analytic sampler.
func TestWernerVisibilityClosedForm(t *testing.T) {
	g := NewCHSH()
	for _, vis := range []float64{1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 1 / math.Sqrt2, 0.65, 0.5, 0} {
		want := vis*chshQuantum + (1-vis)/2
		got := g.ValueOn(qsim.Werner(vis), OptimalCHSHAngles())
		if math.Abs(got-want) > tol {
			t.Fatalf("V=%v: exact value %v, want %v", vis, got, want)
		}
	}
}

// TestCriticalVisibility: the quantum advantage disappears exactly when
// V·cos²(π/8) + (1−V)/2 = 3/4, i.e. V = 1/√2 ≈ 0.7071 — the noise threshold
// a deployment must beat (paper §3: "all quantum technologies operate with
// an error margin").
func TestCriticalVisibility(t *testing.T) {
	g := NewCHSH()
	a := OptimalCHSHAngles()
	vc := 1 / math.Sqrt2
	at := g.ValueOn(qsim.Werner(vc), a)
	if math.Abs(at-0.75) > 1e-9 {
		t.Fatalf("value at critical visibility = %v, want 0.75", at)
	}
	above := g.ValueOn(qsim.Werner(vc+0.05), a)
	below := g.ValueOn(qsim.Werner(vc-0.05), a)
	if above <= 0.75 || below >= 0.75 {
		t.Fatalf("advantage should flip around V=1/√2: above=%v below=%v", above, below)
	}
}

func TestOptimalCHSHAnglesMatchPaper(t *testing.T) {
	a := OptimalCHSHAngles()
	if a.ThetaA[0] != 0 || a.ThetaA[1] != math.Pi/4 {
		t.Fatalf("Alice angles %v", a.ThetaA)
	}
	if a.ThetaB[0] != math.Pi/8 || a.ThetaB[1] != -math.Pi/8 {
		t.Fatalf("Bob angles %v", a.ThetaB)
	}
	if a.FlipB {
		t.Fatal("plain CHSH must not flip")
	}
	if !OptimalColocationAngles().FlipB {
		t.Fatal("colocation variant must flip Bob's output")
	}
}

func TestColocationDecision(t *testing.T) {
	// With a perfect (deterministic for testing) sampler, the wrapper maps
	// task types to inputs correctly.
	rec := &recordingSampler{}
	ColocationDecision(rec, true, false, nil)
	if rec.x != 1 || rec.y != 0 {
		t.Fatalf("inputs (%d,%d), want (1,0)", rec.x, rec.y)
	}
	ColocationDecision(rec, false, true, nil)
	if rec.x != 0 || rec.y != 1 {
		t.Fatalf("inputs (%d,%d), want (0,1)", rec.x, rec.y)
	}
}

type recordingSampler struct{ x, y int }

func (r *recordingSampler) Sample(x, y int, _ *xrand.RNG) (int, int) {
	r.x, r.y = x, y
	return 0, 0
}

func TestVisibilityInterpolatesSampler(t *testing.T) {
	// At V=0 the sampler's outputs are uncorrelated: win rate = 0.5.
	rng := xrand.New(18, 1)
	g := NewCHSH()
	s := g.QuantumValue(rng).QuantumSampler(0)
	var p stats.Proportion
	for i := 0; i < 60000; i++ {
		x, y := g.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		p.Add(g.Wins(x, y, a, b))
	}
	if !p.Contains95(0.5) {
		t.Fatalf("V=0 win rate %v, want 0.5", p.Rate())
	}
}

func TestEmpiricalValueMatchesClassical(t *testing.T) {
	rng := xrand.New(19, 1)
	g := NewCHSH()
	v := g.EmpiricalValue(g.BestClassicalSampler(), 100000, rng)
	if math.Abs(v-0.75) > 0.01 {
		t.Fatalf("empirical classical value %v", v)
	}
}

func BenchmarkXORQuantumSamplerRound(b *testing.B) {
	rng := xrand.New(1, 4)
	g := NewCHSH()
	s := g.QuantumValue(rng).QuantumSampler(1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := g.SampleInput(rng)
		s.Sample(x, y, rng)
	}
}

func BenchmarkBellSamplerRound(b *testing.B) {
	rng := xrand.New(1, 5)
	bs := NewBellSampler(OptimalCHSHAngles(), 1.0, rng)
	g := NewCHSH()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := g.SampleInput(rng)
		bs.Sample(x, y, rng)
	}
}
