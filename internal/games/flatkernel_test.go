package games

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// randomDenseXORGame draws an arbitrary XOR game: alphabet sizes in
// [1, maxNA]×[1, maxNB], continuous random input probabilities (with a
// sprinkle of exact zeros, exercising the solvers' zero-row handling), and
// random parities.
func randomDenseXORGame(maxNA, maxNB int, rng *xrand.RNG) *XORGame {
	na := 1 + int(rng.Uint64()%uint64(maxNA))
	nb := 1 + int(rng.Uint64()%uint64(maxNB))
	g := &XORGame{Name: fmt.Sprintf("rand-%dx%d", na, nb), NA: na, NB: nb}
	g.Prob = make([][]float64, na)
	g.Parity = make([][]int, na)
	var total float64
	for x := 0; x < na; x++ {
		g.Prob[x] = make([]float64, nb)
		g.Parity[x] = make([]int, nb)
		for y := 0; y < nb; y++ {
			if rng.Bool(0.2) {
				g.Prob[x][y] = 0
			} else {
				g.Prob[x][y] = rng.Float64()
			}
			total += g.Prob[x][y]
			if rng.Bool(0.5) {
				g.Parity[x][y] = 1
			}
		}
	}
	if total == 0 {
		g.Prob[0][0] = 1
		total = 1
	}
	for x := range g.Prob {
		for y := range g.Prob[x] {
			g.Prob[x][y] /= total
		}
	}
	return g
}

// TestGrayCodeMatchesBruteForce is the property test for the classical
// flat kernel: on random games the Gray-code enumeration must return
// EXACTLY the brute-force result — same bias bits, same answer tables,
// including tie-breaks (lowest winning mask).
func TestGrayCodeMatchesBruteForce(t *testing.T) {
	rng := xrand.New(900, 1)
	games := []*XORGame{NewCHSH(), NewColocationCHSH()}
	for i := 0; i < 150; i++ {
		games = append(games, randomDenseXORGame(8, 6, rng))
	}
	// Structured near-tie ensembles: the Figure 3 family, where uniform
	// probabilities make exact ties common.
	for i := 0; i < 60; i++ {
		games = append(games, RandomGraphXORGame(3+int(rng.Uint64()%4), rng.Float64(), rng))
	}
	for _, g := range games {
		want := g.ClassicalValueReference()
		got := g.classicalValueUncached()
		if got.Bias != want.Bias || got.Value != want.Value {
			t.Fatalf("%s: gray bias %v (value %v) != brute-force %v (%v)",
				g.Name, got.Bias, got.Value, want.Bias, want.Value)
		}
		if !equalInts(got.A, want.A) || !equalInts(got.B, want.B) {
			t.Fatalf("%s: gray strategy A=%v B=%v != brute-force A=%v B=%v",
				g.Name, got.A, got.B, want.A, want.B)
		}
	}
}

// requireSameQuantum fails unless got and want agree bit for bit in bias,
// value, vectors and correlators.
func requireSameQuantum(t *testing.T, name string, got, want QuantumResult) {
	t.Helper()
	if math.Float64bits(got.Bias) != math.Float64bits(want.Bias) || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("%s: flat bias %v != reference %v", name, got.Bias, want.Bias)
	}
	for _, m := range []struct {
		name      string
		got, want [][]float64
	}{{"U", got.U, want.U}, {"V", got.V, want.V}, {"Dot", got.Dot, want.Dot}} {
		if len(m.got) != len(m.want) {
			t.Fatalf("%s: %s has %d rows, reference %d", name, m.name, len(m.got), len(m.want))
		}
		for i := range m.want {
			if len(m.got[i]) != len(m.want[i]) {
				t.Fatalf("%s: %s[%d] has %d entries, reference %d", name, m.name, i, len(m.got[i]), len(m.want[i]))
			}
			for j := range m.want[i] {
				if math.Float64bits(m.got[i][j]) != math.Float64bits(m.want[i][j]) {
					t.Fatalf("%s: %s[%d][%d] = %v, reference %v", name, m.name, i, j, m.got[i][j], m.want[i][j])
				}
			}
		}
	}
}

// TestFlatQuantumMatchesReference checks the flat Burer–Monteiro solver is
// bit-identical to the retained jagged reference under the same restart
// stream: bias, vectors, and correlators must agree exactly.
func TestFlatQuantumMatchesReference(t *testing.T) {
	rng := xrand.New(901, 1)
	games := []*XORGame{NewCHSH(), NewColocationCHSH()}
	for i := 0; i < 12; i++ {
		games = append(games, randomDenseXORGame(5, 5, rng))
	}
	for i := 0; i < 8; i++ {
		games = append(games, RandomGraphXORGame(5, rng.Float64(), rng))
	}
	for gi, g := range games {
		seed := uint64(1000 + gi)
		want := g.QuantumValueReference(xrand.New(seed, 7))
		got := g.QuantumValueUncached(xrand.New(seed, 7))
		requireSameQuantum(t, g.Name, got, want)
	}
}

// TestQuantumValueRankMatchesJaggedOracle pins that the rank-restricted
// solve is the flat kernel at another dimension: at ranks below, at and
// above full it reproduces the jagged solver QuantumValueRank used to run —
// same restart count, same draws, same bits — and leaves the stream where
// the oracle leaves it.
func TestQuantumValueRankMatchesJaggedOracle(t *testing.T) {
	// PR 23 ran this once at perSize 79 (1 190 solves, 33 s, 10× that under
	// -race); the sizes here keep the same shapes and ranks at a tier-1
	// price.
	perSize := 6
	if testing.Short() {
		perSize = 2
	}
	rng := xrand.New(923, 1)
	games := []*XORGame{NewCHSH()}
	for n := 4; n <= 6; n++ {
		for i := 0; i < perSize; i++ {
			games = append(games, RandomGraphXORGame(n, rng.Float64(), rng))
		}
	}
	for gi, g := range games {
		for _, rank := range []int{1, 2, 3, g.NA + g.NB, g.NA + g.NB + 2} {
			seed := uint64(2000 + gi)
			wantRNG, gotRNG := xrand.New(seed, 9), xrand.New(seed, 9)
			want := g.quantumValueRankReference(wantRNG, rank)
			got := g.QuantumValueRank(gotRNG, rank)
			name := fmt.Sprintf("%s#%d rank %d", g.Name, gi, rank)
			requireSameQuantum(t, name, got, want)
			if gotRNG.Uint64() != wantRNG.Uint64() {
				t.Fatalf("%s: flat and jagged solves consumed different draws", name)
			}
		}
	}
}

// TestQuantumAtLeastClassical is the sanity property on random games: the
// quantum value can never fall below the classical value (the classical
// optimum is a feasible point of the Tsirelson relaxation) beyond solver
// convergence slack.
func TestQuantumAtLeastClassical(t *testing.T) {
	rng := xrand.New(902, 1)
	for i := 0; i < 40; i++ {
		g := randomDenseXORGame(5, 5, rng)
		c := g.ClassicalValue()
		q := g.QuantumValueUncached(xrand.Derive(903, uint64(i)))
		if q.Value < c.Value-1e-9 {
			t.Fatalf("%s: quantum %v < classical %v", g.Name, q.Value, c.Value)
		}
	}
}

// TestClassicalTransposedTallGame covers the former panic: a tall-skinny
// game (NA > 24 ≥ NB) must be solved through the transposed enumeration and
// agree with the brute-force solve of its explicitly transposed twin.
func TestClassicalTransposedTallGame(t *testing.T) {
	rng := xrand.New(904, 1)
	na, nb := MaxEnumInputs+4, 3
	g := &XORGame{Name: "tall", NA: na, NB: nb}
	g.Prob = make([][]float64, na)
	g.Parity = make([][]int, na)
	p := 1.0 / float64(na*nb)
	for x := 0; x < na; x++ {
		g.Prob[x] = make([]float64, nb)
		g.Parity[x] = make([]int, nb)
		for y := 0; y < nb; y++ {
			g.Prob[x][y] = p
			if rng.Bool(0.5) {
				g.Parity[x][y] = 1
			}
		}
	}
	got := g.classicalValueUncached()

	// Transposed twin, solved by the reference enumeration over its (small)
	// Alice side.
	tw := &XORGame{Name: "tall-T", NA: nb, NB: na}
	tw.Prob = make([][]float64, nb)
	tw.Parity = make([][]int, nb)
	for y := 0; y < nb; y++ {
		tw.Prob[y] = make([]float64, na)
		tw.Parity[y] = make([]int, na)
		for x := 0; x < na; x++ {
			tw.Prob[y][x] = g.Prob[x][y]
			tw.Parity[y][x] = g.Parity[x][y]
		}
	}
	want := tw.ClassicalValueReference()
	if got.Bias != want.Bias {
		t.Fatalf("tall game bias %v != transposed reference %v", got.Bias, want.Bias)
	}
	if !equalInts(got.A, want.B) || !equalInts(got.B, want.A) {
		t.Fatalf("tall game answers A=%v B=%v, want swap of A=%v B=%v", got.A, got.B, want.A, want.B)
	}
	if len(got.A) != na || len(got.B) != nb {
		t.Fatalf("answer table lengths %d/%d, want %d/%d", len(got.A), len(got.B), na, nb)
	}
}

// TestClassicalPanicNamesLimit checks the too-large panic names the actual
// limit and both alphabet sizes.
func TestClassicalPanicNamesLimit(t *testing.T) {
	g := &XORGame{Name: "huge", NA: 30, NB: 27}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for 30x27 enumeration")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"24", "NA=30", "NB=27", "huge"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	g.classicalValueUncached()
}

// TestSolveBatchMatchesSequential checks the batch pipeline returns, in
// input order, exactly what one-at-a-time solving returns — at several
// worker counts, and regardless of submission order.
func TestSolveBatchMatchesSequential(t *testing.T) {
	rng := xrand.New(905, 1)
	gs := make([]*XORGame, 0, 3*batchChunk+5)
	for i := 0; i < cap(gs); i++ {
		gs = append(gs, RandomGraphXORGame(4, rng.Float64(), rng))
	}
	ResetSolveCache()
	want := make([]BatchResult, len(gs))
	for i, g := range gs {
		want[i] = BatchResult{Classical: g.ClassicalValue(), Quantum: g.QuantumValue(nil)}
	}
	check := func(got []BatchResult, label string) {
		t.Helper()
		for i := range want {
			if got[i].Classical.Bias != want[i].Classical.Bias ||
				got[i].Quantum.Bias != want[i].Quantum.Bias {
				t.Fatalf("%s: game %d: batch (%v, %v) != sequential (%v, %v)", label, i,
					got[i].Classical.Bias, got[i].Quantum.Bias,
					want[i].Classical.Bias, want[i].Quantum.Bias)
			}
			if got[i].HasAdvantage() != (want[i].Quantum.Bias > want[i].Classical.Bias+AdvantageTolerance) {
				t.Fatalf("%s: game %d: advantage predicate mismatch", label, i)
			}
		}
	}
	for _, workers := range []int{1, 2, 7} {
		ResetSolveCache()
		check(SolveBatch(gs, workers), fmt.Sprintf("workers=%d", workers))
	}
	// Reversed submission order: per-game results must not move (solves are
	// pure functions of the game; batch order is immaterial).
	rev := make([]*XORGame, len(gs))
	for i, g := range gs {
		rev[len(gs)-1-i] = g
	}
	ResetSolveCache()
	gotRev := SolveBatch(rev, 3)
	ordered := make([]BatchResult, len(gs))
	for i := range gotRev {
		ordered[len(gs)-1-i] = gotRev[i]
	}
	check(ordered, "reversed")
}

// TestSolveBatchEmpty covers the degenerate size.
func TestSolveBatchEmpty(t *testing.T) {
	if got := SolveBatch(nil, 4); got != nil {
		t.Fatalf("SolveBatch(nil) = %v, want nil", got)
	}
}

// TestSolveBatchMatchesDirectTrials holds a cold batch's advantage predicate
// to a serial loop of HasQuantumAdvantage over Figure 3 games drawn from
// derived streams.
func TestSolveBatchMatchesDirectTrials(t *testing.T) {
	const n, p, trials = 4, 0.45, 48
	base := xrand.New(906, 1).Uint64()
	gs := make([]*XORGame, trials)
	for i := range gs {
		gs[i] = RandomGraphXORGame(n, p, xrand.Derive(base, uint64(i)))
	}
	ResetSolveCache()
	got := SolveBatch(gs, 0)
	for i, g := range gs {
		want, _, _ := g.HasQuantumAdvantage(nil)
		if got[i].HasAdvantage() != want {
			t.Fatalf("game %d: batch advantage %v, direct %v", i, got[i].HasAdvantage(), want)
		}
	}
}

// TestGrayCodeNearTieBias feeds the Gray sweep a game engineered so that
// incremental drift could in principle pick a different (near-tied) mask:
// exact duplicate rows guarantee exact ties, which must resolve to the
// lowest mask — the brute-force tie-break.
func TestGrayCodeNearTieBias(t *testing.T) {
	g := &XORGame{
		Name: "tied",
		NA:   4, NB: 2,
		Prob: [][]float64{
			{0.125, 0.125}, {0.125, 0.125}, {0.125, 0.125}, {0.125, 0.125},
		},
		Parity: [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}},
	}
	want := g.ClassicalValueReference()
	got := g.classicalValueUncached()
	if got.Bias != want.Bias || !equalInts(got.A, want.A) || !equalInts(got.B, want.B) {
		t.Fatalf("tied game: gray %+v != brute force %+v", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkClassicalValueKernel measures the Gray-code enumeration against
// the brute-force reference on a K10 graph game (1024 masks) — the ≥3×
// kernel target — and reports allocations.
func BenchmarkClassicalValueKernel(b *testing.B) {
	g := RandomGraphXORGame(10, 0.5, xrand.New(907, 1))
	b.Run("gray", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.classicalValueUncached()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.ClassicalValueReference()
		}
	})
}

// BenchmarkQuantumAscentKernel measures the flat Burer–Monteiro solver
// against the jagged reference on two workloads: CHSH (d=4, the game every
// paired-strategy constructor solves — where per-call overhead dominates
// and the flat solver clears the ≥1.5× ascent target) and the K5 Figure 3
// ensemble game (d=10, where both solvers are bound by the same mandatory
// flop sequence and the flat win is smaller).
func BenchmarkQuantumAscentKernel(b *testing.B) {
	for _, w := range []struct {
		name string
		g    *XORGame
	}{
		{"chsh", NewCHSH()},
		{"k5", RandomGraphXORGame(5, 0.5, xrand.New(908, 1))},
	} {
		b.Run(w.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			rng := xrand.New(909, 1)
			for i := 0; i < b.N; i++ {
				w.g.QuantumValueUncached(rng)
			}
		})
		b.Run(w.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			rng := xrand.New(909, 1)
			for i := 0; i < b.N; i++ {
				w.g.QuantumValueReference(rng)
			}
		})
	}
}

// BenchmarkSolveBatch measures the batched pipeline end to end on a fresh
// ensemble per iteration (cold cache within the run would hide behind
// memoization otherwise: distinct labelings dominate at n=6).
func BenchmarkSolveBatch(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(910, 1)
	gs := make([]*XORGame, 64)
	for i := range gs {
		gs[i] = RandomGraphXORGame(6, 0.5, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveBatch(gs, 0)
	}
}

// TestFlatSolversUnderRace is the small -race workload the CI race job
// exercises: a batch fanned out over several workers with the flat kernels
// and the solve cache underneath.
func TestFlatSolversUnderRace(t *testing.T) {
	rng := xrand.New(911, 1)
	gs := make([]*XORGame, 2*batchChunk)
	for i := range gs {
		gs[i] = RandomGraphXORGame(4, 0.5, rng)
	}
	res := SolveBatch(gs, 8)
	for i, r := range res {
		if math.IsNaN(r.Classical.Bias) || math.IsNaN(r.Quantum.Bias) {
			t.Fatalf("game %d: NaN bias", i)
		}
	}
}
