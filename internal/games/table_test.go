package games

import (
	"math"
	"testing"

	"repro/internal/qsim"
	"repro/internal/xrand"
)

// sameNextDraw fails unless both streams sit at the same position: the table
// samplers must consume exactly the draws the per-sample code did.
func sameNextDraw(t *testing.T, got, want *xrand.RNG) {
	t.Helper()
	if got.Uint64() != want.Uint64() {
		t.Fatal("table sampler and per-sample oracle consumed different numbers of draws")
	}
}

func TestLeaderTableMatchesPerRoundOracle(t *testing.T) {
	const rounds = 2000
	for n := 2; n <= 8; n++ {
		got, want := xrand.New(14, uint64(n)), xrand.New(14, uint64(n))
		leaders, classicalWins := runLeaderElectionOracle(n, rounds, want)
		st := RunLeaderElection(n, rounds, got)
		sameNextDraw(t, got, want)

		counts := make([]float64, n)
		for _, l := range leaders {
			counts[l]++
		}
		var tv float64
		for _, c := range counts {
			tv += math.Abs(c/rounds - 1/float64(n))
		}
		if st.QuantumFairness != tv/2 || st.ClassicalSuccess != float64(classicalWins)/rounds {
			t.Fatalf("n=%d: table run (fairness %v, classical %v) differs from per-round oracle (%v, %v)",
				n, st.QuantumFairness, st.ClassicalSuccess, tv/2, float64(classicalWins)/rounds)
		}

		// Round by round through the one-shot entry points too.
		got, want = xrand.New(15, uint64(n)), xrand.New(15, uint64(n))
		for r := 0; r < 200; r++ {
			if g, w := LeaderElection(n, got), leaderElectionOracle(n, want); g != w {
				t.Fatalf("n=%d round %d: leader %d, oracle %d", n, r, g, w)
			}
			gl, gok := ClassicalLeaderElection(n, got)
			wl, wok := classicalLeaderElectionOracle(n, want)
			if gl != wl || gok != wok {
				t.Fatalf("n=%d round %d: classical (%d,%v), oracle (%d,%v)", n, r, gl, gok, wl, wok)
			}
		}
		sameNextDraw(t, got, want)
	}
}

func TestBellTableMatchesPerSampleOracle(t *testing.T) {
	for _, angles := range []CHSHAngles{OptimalCHSHAngles(), OptimalColocationAngles()} {
		for _, v := range []float64{1, 0.95, 0.7, 0} {
			got, want := xrand.New(1, 77), xrand.New(1, 77)
			inputs := xrand.New(1, 78)
			bs := NewBellSampler(angles, v, got)
			state := qsim.Werner(v)
			for r := 0; r < 4000; r++ {
				x, y := inputs.IntN(2), inputs.IntN(2)
				ga, gb := bs.Sample(x, y, nil)
				wa, wb := bellSampleOracle(angles, state, x, y, want)
				if ga != wa || gb != wb {
					t.Fatalf("V=%v flip=%v round %d input (%d,%d): table (%d,%d), oracle (%d,%d)",
						v, angles.FlipB, r, x, y, ga, gb, wa, wb)
				}
			}
			sameNextDraw(t, got, want)
		}
	}
}

// An input outside the angle sets panics rather than aliasing another cell
// ((0, 2) would otherwise read (1, 0)).
func TestBellSamplerRejectsOutOfRangeInput(t *testing.T) {
	bs := NewBellSampler(OptimalCHSHAngles(), 1, xrand.New(1, 1))
	for _, in := range [][2]int{{0, 2}, {2, 0}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("input %v did not panic", in)
				}
			}()
			bs.Sample(in[0], in[1], nil)
		}()
	}
}

func TestGHZTableMatchesPerSampleOracle(t *testing.T) {
	for players := 2; players <= 5; players++ {
		got, want := xrand.New(8, uint64(players)), xrand.New(8, uint64(players))
		inputs := xrand.New(9, uint64(players))
		s := NewGHZSampler(players, got)
		for r := 0; r < 2000; r++ {
			joint := inputs.IntN(1 << players)
			if g, w := s.Sample(joint, nil), ghzSampleOracle(players, joint, want); g != w {
				t.Fatalf("%d players round %d input %b: table %b, oracle %b", players, r, joint, g, w)
			}
		}
		sameNextDraw(t, got, want)
	}
}

// After the first call per input a sample is a table lookup and one draw.
func TestTableSamplersDoNotAllocate(t *testing.T) {
	bell := NewBellSampler(OptimalCHSHAngles(), 0.95, xrand.New(2, 1))
	ghz := NewGHZSampler(3, xrand.New(2, 2))
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			bell.Sample(x, y, nil)
		}
	}
	for joint := 0; joint < 8; joint++ {
		ghz.Sample(joint, nil)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() { bell.Sample(i&1, i>>1&1, nil); i++ }); a != 0 {
		t.Errorf("BellSampler.Sample: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { ghz.Sample(i&7, nil); i++ }); a != 0 {
		t.Errorf("GHZSampler.Sample: %v allocs/op, want 0", a)
	}
}

// RunLeaderElection's allocations are the table and the counts: ten times
// the rounds cost not one allocation more.
func TestRunLeaderElectionAllocsDoNotGrowWithRounds(t *testing.T) {
	allocs := func(rounds int) float64 {
		rng := xrand.New(3, 1)
		return testing.AllocsPerRun(3, func() { RunLeaderElection(5, rounds, rng) })
	}
	if small, large := allocs(2000), allocs(20000); large != small {
		t.Errorf("%v allocs at 2000 rounds, %v at 20000: allocation grows with rounds", small, large)
	}
}
