package games

import (
	"fmt"
	"math"
	"testing"
)

// k5Edges lists the 10 unordered vertex pairs of K5 in the order a
// labeling mask numbers them.
var k5Edges = func() (es [][2]int) {
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			es = append(es, [2]int{u, v})
		}
	}
	return es
}()

// k5Labeling builds the Figure 3 game whose edge i is Exclusive iff bit i of
// mask is set: the whole ensemble is the 1024 masks.
func k5Labeling(mask int) *XORGame {
	labels := make([][]EdgeLabel, 5)
	for i := range labels {
		labels[i] = make([]EdgeLabel, 5)
	}
	for i, e := range k5Edges {
		if mask>>i&1 == 1 {
			labels[e[0]][e[1]], labels[e[1]][e[0]] = Exclusive, Exclusive
		}
	}
	return GraphXORGame(fmt.Sprintf("K5-%03x", mask), 5, labels)
}

// k5Orbit returns the smallest mask among the 120 vertex relabelings of a
// labeling. Relabeling permutes the rows and columns of the sign matrix
// together, which moves neither the classical nor the quantum value.
func k5Orbit(mask int) int {
	var edgeIndex [5][5]int
	for i, e := range k5Edges {
		edgeIndex[e[0]][e[1]], edgeIndex[e[1]][e[0]] = i, i
	}
	best := mask
	var perm [5]int
	var rec func(k, used int)
	rec = func(k, used int) {
		if k == 5 {
			m := 0
			for i, e := range k5Edges {
				if mask>>i&1 == 1 {
					m |= 1 << edgeIndex[perm[e[0]]][perm[e[1]]]
				}
			}
			if m < best {
				best = m
			}
			return
		}
		for v := 0; v < 5; v++ {
			if used>>v&1 == 0 {
				perm[k] = v
				rec(k+1, used|1<<v)
			}
		}
	}
	rec(0, 0)
	return best
}

// TestK5QuantumNeverBelowClassical is the q ≥ c promise with no tolerance,
// over every labeling of the Figure 3 ensemble. The ascent alone breaks it:
// on a no-advantage labeling it stops 3.6e-10 short of the classical bias.
//
// The served result is also held to the ascent-only oracle on the game's own
// restart stream: bit-identical wherever the certificate did not settle the
// game, and the same verdict within 1e-8 where it did — there on one
// labeling per vertex-relabeling orbit, because each such ascent runs its
// full ~57 000 iterations.
func TestK5QuantumNeverBelowClassical(t *testing.T) {
	ResetSolveCache()
	certified, orbits := 0, make(map[int]bool)
	minGap := math.Inf(1)
	for mask := 0; mask < 1<<len(k5Edges); mask++ {
		g := k5Labeling(mask)
		c := g.ClassicalValue()
		q := g.QuantumValue(nil)
		if q.Bias < c.Bias {
			t.Fatalf("%s: quantum bias %v below classical %v by %g", g.Name, q.Bias, c.Bias, c.Bias-q.Bias)
		}
		adv := q.Bias > c.Bias+AdvantageTolerance
		if adv {
			minGap = math.Min(minGap, q.Bias-c.Bias)
		}

		_, settled := g.certifiedQuantum(&c)
		if settled {
			certified++
			if adv || q.Bias != c.Bias {
				t.Fatalf("%s: certified, yet served bias %v vs classical %v", g.Name, q.Bias, c.Bias)
			}
			o := k5Orbit(mask)
			if orbits[o] {
				continue
			}
			orbits[o] = true
		}
		if !settled && !adv {
			t.Fatalf("%s: neither certified nor advantaged (q − c = %g)", g.Name, q.Bias-c.Bias)
		}
		oracle := g.QuantumValueUncached(internalSolveRNG(g.signKey()))
		if !settled && oracle.Bias != q.Bias {
			t.Fatalf("%s: not certified, served bias %v != ascent %v", g.Name, q.Bias, oracle.Bias)
		}
		if d := math.Abs(oracle.Bias - q.Bias); d > 1e-8 {
			t.Fatalf("%s: served bias %v differs from the ascent's %v by %g", g.Name, q.Bias, oracle.Bias, d)
		}
		if oadv := oracle.Bias > c.Bias+AdvantageTolerance; oadv != adv {
			t.Fatalf("%s: advantage verdict %v, ascent-only oracle says %v", g.Name, adv, oadv)
		}
	}
	if certified == 0 || certified == 1<<len(k5Edges) {
		t.Fatalf("certificate settled %d of 1024 labelings; both sides must occur", certified)
	}
	// EXPERIMENTS.md E2 quotes the verdict's margin on the "yes" side.
	if minGap < 0.1-1e-9 {
		t.Fatalf("smallest advantage among K5 labelings is %g, documented as 0.1", minGap)
	}
	t.Logf("%d of 1024 labelings certified (%d orbits), smallest advantage %.4f", certified, len(orbits), minGap)
}
