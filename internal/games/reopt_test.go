package games

import (
	"math"
	"testing"

	"repro/internal/qsim"
	"repro/internal/xrand"
)

func TestBehaviorOnStateIsNormalizedAndNonSignaling(t *testing.T) {
	g := NewColocationCHSH()
	rng := xrand.New(7, 1)
	rho := qsim.Werner(0.8)
	res := g.SeeSawOnState(rho, rng)
	p := BehaviorOnState(rho, res.AliceProj, res.BobProj)
	for x := range p {
		for y := range p[x] {
			sum := 0.0
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if p[x][y][a][b] < -1e-12 {
						t.Fatalf("P[%d][%d][%d][%d] = %v negative", x, y, a, b, p[x][y][a][b])
					}
					sum += p[x][y][a][b]
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("P[%d][%d] sums to %v", x, y, sum)
			}
		}
	}
	if v := VerifyBehaviorNoSignaling(p); v > 1e-9 {
		t.Fatalf("behavior signals: violation %v", v)
	}
}

// TestBehaviorOnStateMatchesSeeSawValue: scoring the behavior against the
// game must reproduce the see-saw's reported value exactly.
func TestBehaviorOnStateMatchesSeeSawValue(t *testing.T) {
	g := NewColocationCHSH()
	rng := xrand.New(3, 9)
	rho := qsim.Werner(0.9)
	res := g.SeeSawOnState(rho, rng)
	p := BehaviorOnState(rho, res.AliceProj, res.BobProj)
	var v float64
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if g.Wins(x, y, a, b) {
						v += g.Prob[x][y] * p[x][y][a][b]
					}
				}
			}
		}
	}
	if math.Abs(v-res.Value) > 1e-9 {
		t.Fatalf("behavior scores %v, see-saw reported %v", v, res.Value)
	}
}

func TestReoptimizedSamplerBeatsClassicalAboveCritical(t *testing.T) {
	g := NewColocationCHSH()
	classical := g.ClassicalValue().Value
	for _, vis := range []float64{0.75, 0.85, 0.95} {
		_, value := ReoptimizedSampler(g, vis, xrand.New(1, 5))
		// Werner noise is isotropic, so re-optimization recovers the
		// fixed-angle value vis·q + (1−vis)/2; above the critical
		// visibility that strictly beats the classical value.
		want := vis*cosSq8 + (1-vis)/2
		if value < classical-1e-9 {
			t.Fatalf("vis %v: reoptimized value %v below classical %v", vis, value, classical)
		}
		if math.Abs(value-want) > 5e-3 {
			t.Fatalf("vis %v: reoptimized value %v, want ≈%v", vis, value, want)
		}
	}
}

const cosSq8 = 0.8535533905932737 // cos²(π/8)

func TestTableSamplerReproducesTableStatistics(t *testing.T) {
	g := NewColocationCHSH()
	s, _ := ReoptimizedSampler(g, 0.9, xrand.New(2, 4))
	ts, ok := s.(*TableSampler)
	if !ok {
		t.Fatalf("ReoptimizedSampler returned %T, want *TableSampler", s)
	}
	rng := xrand.New(6, 6)
	const n = 200_000
	counts := [2][2]int{}
	for i := 0; i < n; i++ {
		a, b := ts.Sample(0, 1, rng)
		counts[a][b]++
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			got := float64(counts[a][b]) / n
			want := ts.P[0][1][a][b]
			if math.Abs(got-want) > 0.01 {
				t.Fatalf("empirical P[0][1][%d][%d] = %v, table says %v", a, b, got, want)
			}
		}
	}
}
