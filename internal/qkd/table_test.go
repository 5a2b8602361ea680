package qkd

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// tableCases are the sessions the differential tests cover: every branch of
// measure (direct, intercepted) at a noiseless and a noisy visibility, and an
// Eve whose basis count is not the textbook two.
func tableCases() map[string]Config {
	clean := DefaultConfig()
	clean.Rounds = 3000
	noisy := clean
	noisy.Visibility = 0.9
	eve := clean
	eve.Eve = StandardEve()
	eve3 := noisy
	eve3.Eve = &Eavesdropper{Bases: []float64{0, math.Pi / 4, math.Pi / 3}}
	return map[string]Config{"clean": clean, "V=0.9": noisy, "eve": eve, "eve3": eve3}
}

func TestQKDTableMatchesPerPairOracle(t *testing.T) {
	for name, cfg := range tableCases() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 42, 99} {
				cfg.Seed = seed
				// The (a, b) stream, pair by pair, and the stream position
				// afterwards: same outcomes from the same number of draws.
				table := newPairTable(cfg)
				got, want := xrand.New(seed, 5), xrand.New(seed, 5)
				angles := xrand.New(seed, 6)
				for round := 0; round < cfg.Rounds; round++ {
					ai, bi := angles.IntN(3), angles.IntN(3)
					ga, gb := table.measure(ai, bi, got)
					wa, wb := measurePairOracle(cfg, ai, bi, want)
					if ga != wa || gb != wb {
						t.Fatalf("seed %d round %d angles (%d,%d): table (%d,%d), oracle (%d,%d)",
							seed, round, ai, bi, ga, gb, wa, wb)
					}
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("seed %d: table and oracle consumed different numbers of draws", seed)
				}
				// And the whole session, Key bytes included.
				if g, w := Run(cfg), runOracle(cfg); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d: Run = %v, per-pair oracle = %v", seed, g, w)
				}
			}
		})
	}
}

func TestRunRejectsEveWithoutBases(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Eve = &Eavesdropper{}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "qkd:") {
			t.Fatalf("Run with an empty Eve.Bases panicked with %q, want a qkd: message", msg)
		}
	}()
	Run(cfg)
}

// A forwarded state is built when Eve's outcome draw first selects it and not
// before: qsim's collapse panics on a zero-probability outcome, the per-pair
// code only ever collapsed onto outcomes it had drawn, and the tables must
// panic in no case it did not. Bob's half of a Werner pair is maximally
// mixed, so no Config reaches p₀ ∈ {0, 1}; the test forces it.
func TestEveImpossibleOutcomeNeverBuilt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 500
	cfg.Eve = StandardEve()
	table := newPairTable(cfg)
	for i := range table.eve {
		table.eve[i].p0 = 1
	}
	rng := xrand.New(3, 3)
	for round := 0; round < cfg.Rounds; round++ {
		table.measure(rng.IntN(3), rng.IntN(3), rng)
	}
	for i, br := range table.eve {
		if br.post[0] == nil || br.post[1] != nil {
			t.Fatalf("Eve basis %d: post tables built = [%v %v], want only outcome 0",
				i, br.post[0] != nil, br.post[1] != nil)
		}
	}
}

// Run's allocations are the tables plus the Key appends: ten times the
// rounds must not cost ten times the allocations.
func TestRunAllocsDoNotGrowWithRounds(t *testing.T) {
	for name, cfg := range tableCases() {
		allocs := func(rounds int) float64 {
			cfg.Rounds = rounds
			return testing.AllocsPerRun(3, func() { Run(cfg) })
		}
		small, large := allocs(2000), allocs(20000)
		// append doubles, so 10× the key bytes is a handful more growths.
		if large > small+8 {
			t.Errorf("%s: %v allocs at 2000 rounds, %v at 20000: allocation grows with rounds", name, small, large)
		}
	}
}
