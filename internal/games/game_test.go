package games

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

const (
	tol = 1e-9
	// The paper's headline numbers.
	chshClassical = 0.75
	chshQuantum   = 0.8535533905932737 // cos²(π/8)
)

func TestCHSHDefinition(t *testing.T) {
	g := NewCHSH()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Win iff a⊕b = x∧y.
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					want := (a ^ b) == (x & y)
					if g.Wins(x, y, a, b) != want {
						t.Fatalf("Wins(%d,%d,%d,%d) wrong", x, y, a, b)
					}
				}
			}
		}
	}
}

func TestColocationCHSHDefinition(t *testing.T) {
	g := NewColocationCHSH()
	// Win iff a⊕b = ¬(x∧y): same outputs exactly when both tasks are type-C.
	if !g.Wins(1, 1, 0, 0) || !g.Wins(1, 1, 1, 1) {
		t.Fatal("both type-C must want same outputs")
	}
	if g.Wins(0, 1, 0, 0) || g.Wins(0, 0, 1, 1) {
		t.Fatal("any type-E must want different outputs")
	}
}

func TestCHSHClassicalValue(t *testing.T) {
	r := NewCHSH().ClassicalValue()
	if math.Abs(r.Value-chshClassical) > tol {
		t.Fatalf("CHSH classical value = %v, want 0.75", r.Value)
	}
	// The all-zeros strategy achieves it (paper: "always output a=b=0").
	s := &DeterministicSampler{A: []int{0, 0}, B: []int{0, 0}}
	g := NewCHSH()
	var v float64
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			a, b := s.Sample(x, y, nil)
			if g.Wins(x, y, a, b) {
				v += g.Prob[x][y]
			}
		}
	}
	if math.Abs(v-0.75) > tol {
		t.Fatalf("all-zeros strategy value = %v", v)
	}
}

func TestColocationClassicalValue(t *testing.T) {
	r := NewColocationCHSH().ClassicalValue()
	if math.Abs(r.Value-chshClassical) > tol {
		t.Fatalf("colocation classical value = %v, want 0.75", r.Value)
	}
}

func TestCHSHQuantumValue(t *testing.T) {
	rng := xrand.New(1, 1)
	q := NewCHSH().QuantumValue(rng)
	if math.Abs(q.Value-chshQuantum) > 1e-7 {
		t.Fatalf("CHSH quantum value = %v, want cos²(π/8) = %v", q.Value, chshQuantum)
	}
	// Tsirelson bound: the bias can never exceed √2/2.
	if q.Bias > math.Sqrt2/2+1e-9 {
		t.Fatalf("CHSH bias %v exceeds the Tsirelson bound", q.Bias)
	}
	// The optimizing vectors must be unit.
	for _, u := range q.U {
		var n float64
		for _, c := range u {
			n += c * c
		}
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("non-unit optimizer vector: ‖u‖² = %v", n)
		}
	}
}

func TestColocationQuantumValue(t *testing.T) {
	rng := xrand.New(2, 1)
	q := NewColocationCHSH().QuantumValue(rng)
	if math.Abs(q.Value-chshQuantum) > 1e-7 {
		t.Fatalf("colocation quantum value = %v, want %v", q.Value, chshQuantum)
	}
}

func TestQuantumNeverBelowClassical(t *testing.T) {
	// The vector optimum includes all rank-1 (classical ±1) solutions, so
	// quantum bias ≥ classical bias on every instance.
	rng := xrand.New(3, 1)
	for trial := 0; trial < 30; trial++ {
		g := RandomGraphXORGame(4+rng.IntN(3), rng.Float64(), rng)
		c := g.ClassicalValue()
		q := g.QuantumValue(rng)
		if q.Bias < c.Bias-1e-7 {
			t.Fatalf("%s: quantum bias %v below classical %v", g.Name, q.Bias, c.Bias)
		}
	}
}

func TestGraphGameExtremesHaveNoAdvantage(t *testing.T) {
	rng := xrand.New(4, 1)
	// p = 0: all edges colocate — constant equal outputs win everything.
	g0 := RandomGraphXORGame(5, 0, rng)
	c0 := g0.ClassicalValue()
	if math.Abs(c0.Value-1) > tol {
		t.Fatalf("all-colocate classical value = %v, want 1", c0.Value)
	}
	adv, _, _ := g0.HasQuantumAdvantage(rng)
	if adv {
		t.Fatal("no advantage possible when classical value is already 1")
	}
	// p = 1: all edges exclusive — constant opposite outputs win everything.
	g1 := RandomGraphXORGame(5, 1, rng)
	c1 := g1.ClassicalValue()
	if math.Abs(c1.Value-1) > tol {
		t.Fatalf("all-exclusive classical value = %v, want 1", c1.Value)
	}
	adv1, _, _ := g1.HasQuantumAdvantage(rng)
	if adv1 {
		t.Fatal("no advantage possible when classical value is already 1")
	}
}

func TestGraphGameMidpointUsuallyHasAdvantage(t *testing.T) {
	// Figure 3's content: near p = 0.5 most random labelings of K5 admit a
	// quantum advantage.
	var adv int64
	for _, k := range AdvantageCensus(5, 0) {
		adv += k
	}
	if p := float64(adv) / 1024; p < 0.5 {
		t.Fatalf("advantage probability at p=0.5 is only %v; Figure 3 expects most games to have one", p)
	}
}

func TestXORGameValidateRejectsBadGames(t *testing.T) {
	bad := &XORGame{Name: "bad", NA: 2, NB: 2,
		Prob:   [][]float64{{0.5, 0.5}, {0.5, 0.5}}, // sums to 2
		Parity: [][]int{{0, 0}, {0, 0}},
	}
	if bad.Validate() == nil {
		t.Fatal("expected validation error for non-normalized probabilities")
	}
	bad2 := &XORGame{Name: "bad2", NA: 2, NB: 2,
		Prob:   [][]float64{{0.25, 0.25}, {0.25, 0.25}},
		Parity: [][]int{{0, 2}, {0, 0}},
	}
	if bad2.Validate() == nil {
		t.Fatal("expected validation error for out-of-range parity")
	}
}

func TestSignMatrix(t *testing.T) {
	m := NewCHSH().SignMatrix()
	if m[0][0] != 0.25 || m[1][1] != -0.25 {
		t.Fatalf("sign matrix wrong: %v", m)
	}
}

func TestSampleInputDistribution(t *testing.T) {
	g := NewCHSH()
	rng := xrand.New(6, 1)
	counts := [2][2]int{}
	const trials = 40000
	for i := 0; i < trials; i++ {
		x, y := g.SampleInput(rng)
		counts[x][y]++
	}
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			rate := float64(counts[x][y]) / trials
			if math.Abs(rate-0.25) > 0.01 {
				t.Fatalf("input (%d,%d) rate %v", x, y, rate)
			}
		}
	}
}

func TestGraphGameInputDistribution(t *testing.T) {
	rng := xrand.New(7, 1)
	g := RandomGraphXORGame(5, 0.3, rng)
	// Diagonal excluded, off-diagonal uniform.
	for x := 0; x < 5; x++ {
		if g.Prob[x][x] != 0 {
			t.Fatal("diagonal inputs must have zero probability")
		}
		for y := 0; y < 5; y++ {
			if x != y && math.Abs(g.Prob[x][y]-1.0/20) > tol {
				t.Fatalf("off-diagonal probability %v", g.Prob[x][y])
			}
		}
	}
	// Parity symmetric.
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			if x != y && g.Parity[x][y] != g.Parity[y][x] {
				t.Fatal("parity not symmetric")
			}
		}
	}
}

func TestMixtureNeverBeatsBestDeterministic(t *testing.T) {
	// Convexity: shared randomness cannot exceed the best deterministic
	// strategy. Verified empirically with a mixture of good strategies.
	g := NewCHSH()
	best := g.ClassicalValue()
	rng := xrand.New(8, 1)
	mix := &MixtureSampler{
		Weights: []float64{0.5, 0.3, 0.2},
		Strategies: []JointSampler{
			&DeterministicSampler{A: []int{0, 0}, B: []int{0, 0}},
			&DeterministicSampler{A: []int{0, 1}, B: []int{0, 0}},
			&DeterministicSampler{A: []int{1, 1}, B: []int{1, 1}},
		},
	}
	var p stats.Proportion
	const rounds = 60000
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, b := mix.Sample(x, y, rng)
		p.Add(g.Wins(x, y, a, b))
	}
	lo, _ := p.Wilson95()
	if lo > best.Value {
		t.Fatalf("mixture rate %v significantly exceeds the classical optimum %v", p.Rate(), best.Value)
	}
}

func TestValueFromBiasRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 0.25, 0.75, 1} {
		if math.Abs(ValueFromBias(2*v-1)-v) > tol {
			t.Fatalf("round trip failed for %v", v)
		}
	}
}

func TestBestClassicalSamplerAchievesValue(t *testing.T) {
	rng := xrand.New(9, 1)
	g := RandomGraphXORGame(5, 0.4, rng)
	c := g.ClassicalValue()
	s := g.BestClassicalSampler()
	// Deterministic: exact value computable without sampling.
	var v float64
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			a, b := s.Sample(x, y, nil)
			if g.Prob[x][y] > 0 && g.Wins(x, y, a, b) {
				v += g.Prob[x][y]
			}
		}
	}
	if math.Abs(v-c.Value) > tol {
		t.Fatalf("best sampler achieves %v, ClassicalValue says %v", v, c.Value)
	}
}

func BenchmarkClassicalValueK5(b *testing.B) {
	rng := xrand.New(1, 2)
	g := RandomGraphXORGame(5, 0.5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClassicalValue()
	}
}

func BenchmarkQuantumValueK5(b *testing.B) {
	rng := xrand.New(1, 3)
	g := RandomGraphXORGame(5, 0.5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.QuantumValue(rng)
	}
}
