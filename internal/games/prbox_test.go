package games

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestPRBoxWinsAlways(t *testing.T) {
	rng := xrand.New(110, 1)
	g := NewCHSH()
	pr := &PRBoxSampler{Game: g}
	for i := 0; i < 10000; i++ {
		x, y := g.SampleInput(rng)
		a, b := pr.Sample(x, y, rng)
		if !g.Wins(x, y, a, b) {
			t.Fatal("PR box lost a round")
		}
	}
}

// TestPRBoxIsNoSignaling estimates the box's behavior P[x][y][a][b] from
// Sample: each party's marginal must not depend on the other's input,
// within sampling error.
func TestPRBoxIsNoSignaling(t *testing.T) {
	rng := xrand.New(112, 1)
	g := NewColocationCHSH()
	pr := &PRBoxSampler{Game: g}
	const rounds = 40000
	p := make([][][][]float64, g.NA)
	for x := range p {
		p[x] = make([][][]float64, g.NB)
		for y := range p[x] {
			p[x][y] = [][]float64{{0, 0}, {0, 0}}
			for i := 0; i < rounds; i++ {
				a, b := pr.Sample(x, y, rng)
				p[x][y][a][b] += 1.0 / rounds
			}
		}
	}
	if v := VerifyBehaviorNoSignaling(p); v > 0.02 {
		t.Fatalf("PR box signals by %v — it must not", v)
	}
}

func TestPRBoxUniformMarginals(t *testing.T) {
	rng := xrand.New(111, 1)
	g := NewCHSH()
	pr := &PRBoxSampler{Game: g}
	ones := 0
	const rounds = 50000
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, _ := pr.Sample(x, y, rng)
		ones += a
	}
	if math.Abs(float64(ones)/rounds-0.5) > 0.01 {
		t.Fatalf("PR box marginal %v", float64(ones)/rounds)
	}
}

// TestPRBoxExceedsTsirelson: certification flags the box as super-quantum
// (S = 4 > 2√2) — the simulator correctly distinguishes the three tiers
// classical ≤ 2, quantum ≤ 2√2, no-signaling ≤ 4.
func TestPRBoxExceedsTsirelson(t *testing.T) {
	rng := xrand.New(112, 1)
	pr := &PRBoxSampler{Game: NewCHSH()}
	cert := CertifyCHSH(pr, 20000, rng)
	if math.Abs(cert.S-4) > 0.01 {
		t.Fatalf("PR box S = %v, want 4", cert.S)
	}
	if cert.WithinTsirelson(3) {
		t.Fatal("PR box must be flagged as super-quantum")
	}
	if !cert.ViolatesClassicalBound(3) {
		t.Fatal("PR box certainly violates the classical bound")
	}
}

// TestHierarchy is the conceptual spine of the paper in one test:
// classical < quantum < no-signaling, with exactly the known values.
func TestHierarchy(t *testing.T) {
	rng := xrand.New(113, 1)
	g := NewCHSH()
	c := g.ClassicalValue().Value
	q := g.QuantumValue(rng).Value
	const pr = 1.0
	if !(c < q && q < pr) {
		t.Fatalf("hierarchy broken: %v %v %v", c, q, pr)
	}
	if math.Abs(c-0.75) > 1e-9 || math.Abs(q-chshQuantum) > 1e-6 {
		t.Fatalf("tier values drifted: %v %v", c, q)
	}
}
