package games

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// checkDualCertificate holds one game to the two promises the certificate
// makes, with the ascent on the game's own restart stream as the witness:
// the weak-duality bound q ≤ c + (NA+NB)·max(0, −λ_min) whatever the
// threshold, and "certified ⇒ no advantage".
func checkDualCertificate(t *testing.T, g *XORGame) (certified bool) {
	t.Helper()
	c := g.classicalValueUncached()
	gap := g.dualGap(c)
	q := g.QuantumValueUncached(internalSolveRNG(g.signKey()))
	if q.Bias > c.Bias+gap+1e-9 {
		t.Fatalf("%s: ascent bias %v exceeds the dual bound %v + %g", g.Name, q.Bias, c.Bias, gap)
	}
	cq, certified := g.certifiedQuantum(&c)
	if !certified {
		return false
	}
	if q.Bias > c.Bias+1e-9 {
		t.Fatalf("%s: certified, but the ascent finds bias %v above classical %v", g.Name, q.Bias, c.Bias)
	}
	if cq.Bias != c.Bias || cq.Value != c.Value {
		t.Fatalf("%s: certified result (%v, %v) is not the classical optimum (%v, %v)",
			g.Name, cq.Bias, cq.Value, c.Bias, c.Value)
	}
	// The rank-1 embedding must realize that bias through Dot, the only part
	// of the result the samplers read.
	var bias float64
	for x, row := range cq.Dot {
		for y, dot := range row {
			if want := float64((1 - 2*c.A[x]) * (1 - 2*c.B[y])); dot != want {
				t.Fatalf("%s: Dot[%d][%d] = %v, want a·b = %v", g.Name, x, y, dot, want)
			}
			if g.Parity[x][y] == 1 {
				dot = -dot
			}
			bias += g.Prob[x][y] * dot
		}
	}
	if d := bias - c.Bias; d > 1e-12 || d < -1e-12 {
		t.Fatalf("%s: rank-1 correlators give bias %v, classical optimum is %v", g.Name, bias, c.Bias)
	}
	return true
}

// oddCycleGame is the n-cycle 2-colouring game: Alice gets a vertex, Bob the
// same vertex (answers must agree) or the next one (must differ). For odd n
// no classical colouring wins everywhere, and entanglement helps.
func oddCycleGame(n int) *XORGame {
	g := &XORGame{Name: fmt.Sprintf("odd-cycle-%d", n), NA: n, NB: n}
	for x := 0; x < n; x++ {
		g.Prob = append(g.Prob, make([]float64, n))
		g.Parity = append(g.Parity, make([]int, n))
		g.Prob[x][x] = 1 / float64(2*n)
		g.Prob[x][(x+1)%n] = 1 / float64(2*n)
		g.Parity[x][(x+1)%n] = 1
	}
	mustValidate(g)
	return g
}

// TestDualCertificateSound runs the soundness check over random sign
// matrices up to 6×6 and a sample of the Figure 3 family, and pins the
// games that must never be certified.
func TestDualCertificateSound(t *testing.T) {
	rng := xrand.New(1301, 1)
	certified := 0
	for i := 0; i < 400; i++ {
		if checkDualCertificate(t, randomDenseXORGame(6, 6, rng)) {
			certified++
		}
	}
	for i := 0; i < 12; i++ {
		if checkDualCertificate(t, RandomGraphXORGame(4+i%2, rng.Float64(), rng)) {
			certified++
		}
	}
	if certified == 0 {
		t.Fatal("no game was certified: the certified ⇒ no-advantage half never ran")
	}

	for _, g := range []*XORGame{NewCHSH(), NewColocationCHSH(), oddCycleGame(3), oddCycleGame(5), oddCycleGame(7)} {
		if checkDualCertificate(t, g) {
			t.Fatalf("%s has a quantum advantage and was certified as having none", g.Name)
		}
		if won, _, _ := g.HasQuantumAdvantage(nil); !won {
			t.Fatalf("%s: HasQuantumAdvantage = false", g.Name)
		}
	}
}

// TestCertificateGate: outside the gate the certificate is not consulted,
// whichever entry point asks, so a game's result cannot depend on whether
// its classical optimum was handed down.
func TestCertificateGate(t *testing.T) {
	g := &XORGame{Name: "all-colocate-13x2", NA: certMaxInputs + 1, NB: 2}
	for x := 0; x < g.NA; x++ {
		g.Prob = append(g.Prob, []float64{1 / float64(2*g.NA), 1 / float64(2*g.NA)})
		g.Parity = append(g.Parity, []int{0, 0})
	}
	mustValidate(g)
	c := g.classicalValueUncached()
	if gap := g.dualGap(c); gap > certGapBound {
		t.Fatalf("all-colocate game should close the certificate, gap %g", gap)
	}
	if _, ok := g.certifiedQuantum(&c); ok {
		t.Fatalf("%d×%d is outside certMaxInputs = %d and was certified", g.NA, g.NB, certMaxInputs)
	}
	ResetSolveCache()
	want := g.QuantumValueUncached(internalSolveRNG(g.signKey())).Bias
	if _, _, q := g.HasQuantumAdvantage(nil); q.Bias != want {
		t.Fatalf("HasQuantumAdvantage bias %v, ascent %v", q.Bias, want)
	}
}

// fuzzGame decodes a fuzz input into a valid XOR game: alphabets up to 13
// with at most 36 cells (6×6 and 13×2 both fit, and the ascent stays fast);
// byte i gives cell i its weight (low 7 bits, 0 = the pair never occurs)
// and parity (top bit), cycling through data.
func fuzzGame(na, nb uint8, data []byte) *XORGame {
	g := &XORGame{NA: 1 + int(na)%13, NB: 1 + int(nb)%13}
	if g.NA*g.NB > 36 {
		return nil
	}
	g.Name = fmt.Sprintf("fuzz-%dx%d", g.NA, g.NB)
	var total float64
	for x := 0; x < g.NA; x++ {
		g.Prob = append(g.Prob, make([]float64, g.NB))
		g.Parity = append(g.Parity, make([]int, g.NB))
		for y := 0; y < g.NB; y++ {
			b := byte(1)
			if len(data) > 0 {
				b = data[(x*g.NB+y)%len(data)]
			}
			g.Prob[x][y] = float64(b & 0x7f)
			g.Parity[x][y] = int(b >> 7)
			total += g.Prob[x][y]
		}
	}
	if total == 0 {
		return nil
	}
	for x := range g.Prob {
		for y := range g.Prob[x] {
			g.Prob[x][y] /= total
		}
	}
	return g
}

// FuzzDualCertificate searches for a sign matrix on which the certificate
// is unsound. Seeds live in testdata/fuzz/FuzzDualCertificate.
func FuzzDualCertificate(f *testing.F) {
	f.Fuzz(func(t *testing.T, na, nb uint8, data []byte) {
		g := fuzzGame(na, nb, data)
		if g == nil {
			t.Skip("not a game")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder built an invalid game: %v", err)
		}
		checkDualCertificate(t, g)
	})
}
