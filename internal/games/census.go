package games

import (
	"fmt"
	"math/bits"
)

// Figure 3, counted. A graph game's classical and quantum values depend on
// its labeling only up to two symmetries: relabelling the vertices (the same
// permutation of both parties' inputs) and Seidel switching at a vertex set S
// (both parties flip their output on the inputs in S, which negates those
// rows and columns of the sign matrix). The advantage verdict is therefore a
// function of the labeling's switching class, and K_n has few of them — 7 on
// K5, 54 on K7 (OEIS A002854) — against its 2^C(n,2) labelings.
//
// A labeling is a mask whose bit e is set iff edge e is Exclusive. Edges are
// numbered so that vertex n−1's come last, which makes the labelings where
// vertex n−1 colocates with every other vertex exactly the masks below
// 2^C(n−1,2): the H-space. Switching alone meets each class there once (see
// isolate), so the classes are the components of the H-space under the
// vertex transpositions.

// maxCensusVertices bounds AdvantageCensus: K8's H-space holds 2^21 masks,
// K9's would hold 2^28.
const maxCensusVertices = 8

// switchingCensus is the H-space of K_n split into switching classes.
type switchingCensus struct {
	n, mH int
	edges [][2]int // endpoints of each edge, vertex n−1's last
	cut   []uint32 // cut[S]: the H-edges with one endpoint in S ⊆ {0..n−2}
	class []int32  // class[h]: the switching class of H-space mask h
	reps  []uint32 // reps[c]: the smallest mask of class c
}

func newSwitchingCensus(n int) *switchingCensus {
	if n < 2 || n > maxCensusVertices {
		panic(fmt.Sprintf("games: switching census needs 2 ≤ n ≤ %d vertices, got %d", maxCensusVertices, n))
	}
	c := &switchingCensus{n: n, mH: (n - 1) * (n - 2) / 2}
	var index [maxCensusVertices][maxCensusVertices]int // index[u][v]: the edge joining u and v
	add := func(u, v int) {
		index[u][v], index[v][u] = len(c.edges), len(c.edges)
		c.edges = append(c.edges, [2]int{u, v})
	}
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n-1; v++ {
			add(u, v)
		}
	}
	for u := 0; u < n-1; u++ {
		add(u, n-1)
	}

	c.cut = make([]uint32, 1<<(n-1))
	for s := range c.cut {
		for e, uv := range c.edges[:c.mH] {
			if s>>uv[0]&1 != s>>uv[1]&1 {
				c.cut[s] |= 1 << e
			}
		}
	}

	// swap[k][e] is where edge e goes when vertices k and k+1 trade places;
	// the n−1 adjacent transpositions generate every relabelling.
	swap := make([][]int, n-1)
	for k := range swap {
		var tau [maxCensusVertices]int
		for v := range tau {
			tau[v] = v
		}
		tau[k], tau[k+1] = k+1, k
		swap[k] = make([]int, len(c.edges))
		for e, uv := range c.edges {
			swap[k][e] = index[tau[uv[0]]][tau[uv[1]]]
		}
	}

	// Flood-fill the classes in ascending mask order, so the mask that opens
	// a class is its smallest.
	c.class = make([]int32, 1<<c.mH)
	for h := range c.class {
		c.class[h] = -1
	}
	var stack []uint32
	for h := range c.class {
		if c.class[h] >= 0 {
			continue
		}
		id := int32(len(c.reps))
		c.reps = append(c.reps, uint32(h))
		c.class[h] = id
		stack = append(stack[:0], uint32(h))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, sw := range swap {
				var l uint32
				for b := x; b != 0; b &= b - 1 {
					l |= 1 << sw[bits.TrailingZeros32(b)]
				}
				if y := c.isolate(l); c.class[y] < 0 {
					c.class[y] = id
					stack = append(stack, y)
				}
			}
		}
	}
	return c
}

// isolate maps labeling l to the one H-space mask of its class under
// switching: switching at S = {i : edge (i, n−1) Exclusive} makes vertex n−1
// colocate with every other vertex and flips the H-edges that S cuts.
func (c *switchingCensus) isolate(l uint32) uint32 {
	return l&(1<<c.mH-1) ^ c.cut[l>>c.mH]
}

// game builds the graph game of labeling l.
func (c *switchingCensus) game(l uint32) *XORGame {
	labels := make([][]EdgeLabel, c.n)
	for i := range labels {
		labels[i] = make([]EdgeLabel, c.n)
	}
	for e, uv := range c.edges {
		if l>>e&1 == 1 {
			labels[uv[0]][uv[1]], labels[uv[1]][uv[0]] = Exclusive, Exclusive
		}
	}
	return GraphXORGame(fmt.Sprintf("K%d-%x", c.n, l), c.n, labels)
}

// verdicts solves each class's smallest mask through SolveBatch and reports
// which classes have a quantum advantage.
func (c *switchingCensus) verdicts(workers int) []bool {
	reps := make([]*XORGame, len(c.reps))
	for i, h := range c.reps {
		reps[i] = c.game(h)
	}
	adv := make([]bool, len(reps))
	for i, r := range SolveBatch(reps, workers) {
		adv[i] = r.HasAdvantage()
	}
	return adv
}

// AdvantageCensus counts Figure 3 exactly: count[e] is the number of
// labelings of K_n with e Exclusive edges whose game has a quantum advantage,
// for e = 0..C(n,2). When each edge is Exclusive with probability p,
//
//	P(advantage) = Σ_e count[e] · p^e · (1−p)^(C(n,2)−e).
//
// One game per switching class is solved, over the parallel pool (workers
// <= 0 means GOMAXPROCS); the counts are the same at any worker count.
// n must lie in [2, 8].
func AdvantageCensus(n, workers int) []int64 {
	c := newSwitchingCensus(n)
	adv := c.verdicts(workers)
	count := make([]int64, n*(n-1)/2+1)
	for h, id := range c.class {
		if !adv[id] {
			continue
		}
		// The labelings that isolate to h: h switched at each S.
		for s, cut := range c.cut {
			count[bits.OnesCount32(uint32(h)^cut)+bits.OnesCount(uint(s))]++
		}
	}
	return count
}
