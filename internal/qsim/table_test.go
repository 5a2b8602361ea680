package qsim

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// referenceWalk is the inverse-CDF walk as SampleOutcomes spelled it out
// before sampleDist was shared: the definition of which outcome a draw lands
// on. Every sampler in the repository is pinned to its byte-identical
// artifacts through this order.
func referenceWalk(dist []float64, rng *xrand.RNG) int {
	u := rng.Float64()
	var acc float64
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

func TestSampleDistMatchesReferenceWalk(t *testing.T) {
	shape := xrand.New(5, 1)
	for trial := 0; trial < 200; trial++ {
		// Lopsided on purpose: a walk from the wrong end, or one that skips
		// the last-bucket fallback, lands elsewhere. Some mass is dropped so
		// the cumulative sum stops short of 1 and the fallback is reached.
		dist := make([]float64, 1+shape.IntN(8))
		var total float64
		for i := range dist {
			dist[i] = shape.Float64() * float64(i+1)
			total += dist[i]
		}
		scale := 1.0
		if trial%4 == 0 {
			scale = 0.6
		}
		for i := range dist {
			dist[i] *= scale / total
		}
		got, want := xrand.New(6, uint64(trial)), xrand.New(6, uint64(trial))
		for r := 0; r < 500; r++ {
			if g, w := sampleDist(dist, got), referenceWalk(dist, want); g != w {
				t.Fatalf("trial %d draw %d over %v: sampleDist %d, reference walk %d", trial, r, dist, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("trial %d: sampleDist consumed a different number of draws", trial)
		}
	}
}

// A table cell holds exactly the floats OutcomeDistribution computes for the
// chosen bases, choices are numbered with qubit 0 most significant, and a
// draw from the table is the draw SampleOutcomes makes.
func TestOutcomeTableMatchesSampleOutcomes(t *testing.T) {
	alice := []Basis{RotatedReal(0), RotatedReal(math.Pi / 8), RotatedReal(math.Pi / 4)}
	bob := []Basis{RotatedReal(0.3), RotatedReal(-math.Pi / 8)}
	xy := []Basis{Hadamard(), FromVector([]complex128{1, 1i})}

	werner := Werner(0.8)
	ghz := GHZ(3)
	cases := []struct {
		name   string
		table  *OutcomeTable
		direct func(bases []Basis) []float64
		sample func(bases []Basis, rng *xrand.RNG) int
		sets   [][]Basis
	}{
		{"density", werner.OutcomeTable(alice, bob), werner.OutcomeDistribution, werner.SampleOutcomes, [][]Basis{alice, bob}},
		{"pure", ghz.OutcomeTable(xy, xy, xy), ghz.OutcomeDistribution, ghz.SampleOutcomes, [][]Basis{xy, xy, xy}},
	}
	for _, tc := range cases {
		cells := 1
		for _, s := range tc.sets {
			cells *= len(s)
		}
		if len(tc.table.dist) != cells {
			t.Fatalf("%s: %d cells, want %d", tc.name, len(tc.table.dist), cells)
		}
		for choice := cells - 1; choice >= 0; choice-- {
			if tc.table.dist[choice] != nil {
				t.Fatalf("%s: cell %d filled before first use", tc.name, choice)
			}
			// Decode the choice the documented way: qubit 0 is the most
			// significant digit.
			picked := make([]Basis, len(tc.sets))
			rem := choice
			for k := len(tc.sets) - 1; k >= 0; k-- {
				picked[k] = tc.sets[k][rem%len(tc.sets[k])]
				rem /= len(tc.sets[k])
			}
			want := tc.direct(picked)
			got := tc.table.Distribution(choice)
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("%s choice %d outcome %d: table %v, direct %v", tc.name, choice, o, got[o], want[o])
				}
			}
			if &tc.table.Distribution(choice)[0] != &got[0] {
				t.Fatalf("%s choice %d: cell recomputed on second use", tc.name, choice)
			}
			a, b := xrand.New(9, uint64(choice)), xrand.New(9, uint64(choice))
			for r := 0; r < 300; r++ {
				if g, w := tc.table.Sample(choice, a), tc.sample(picked, b); g != w {
					t.Fatalf("%s choice %d draw %d: table %d, SampleOutcomes %d", tc.name, choice, r, g, w)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("%s choice %d: table consumed a different number of draws", tc.name, choice)
			}
		}
	}
}

func TestOutcomeTableNeedsOneBasisSetPerQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a two-qubit state accepted one basis set")
		}
	}()
	Werner(1).OutcomeTable([]Basis{Computational()})
}
