// Command affinity is the operator's tool: given a task-class affinity
// graph, it computes everything needed to decide whether — and how — to
// deploy quantum-correlated balancing for it:
//
//   - exact classical value (the bar to beat),
//   - quantum value (Tsirelson SDP) and the advantage gap,
//   - the best single-Bell-pair realization with concrete measurement
//     angles for each party and input,
//   - the critical visibility the hardware must sustain.
//
// Graph syntax: -graph "A-B:c,A-C:x,B-C:x" — class names joined by '-',
// then ':c' (colocate) or ':x' (exclusive). Same-class pairs default to
// colocate for classes listed with -caching, else exclusive.
//
//	go run ./cmd/affinity -graph "thumb-trans:c,thumb-ml:x,trans-ml:x"
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/games"
	"repro/internal/report"
	"repro/internal/xrand"
)

func main() {
	graph := flag.String("graph", "cacheA-cacheB:x,cacheA-excl:x,cacheB-excl:x",
		"edges as NAME-NAME:{c|x}, comma separated")
	caching := flag.String("caching", "", "comma-separated class names whose same-class pairs colocate")
	seed := flag.Uint64("seed", 8, "random seed")
	flag.Parse()

	names, labels, diag, err := parseGraph(*graph, *caching)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity:", err)
		os.Exit(2)
	}
	n := len(names)
	game := buildGame(n, labels, diag)
	rng := xrand.New(*seed, 0)
	c := game.ClassicalValue()
	q := game.QuantumValue(rng)
	pr, q2 := game.PlanarRealize(rng)

	fmt.Printf("classes: %s\n\n", strings.Join(names, ", "))
	t := report.NewTable("affinity matrix (c = colocate, x = exclusive)", append([]string{""}, names...)...)
	for i := 0; i < n; i++ {
		row := []string{names[i]}
		for j := 0; j < n; j++ {
			switch {
			case i == j && diag[i]:
				row = append(row, "c")
			case i == j:
				row = append(row, "x")
			case labels[i][j] == games.Colocate:
				row = append(row, "c")
			default:
				row = append(row, "x")
			}
		}
		t.AddRow(row...)
	}
	t.WriteText(os.Stdout)

	fmt.Printf("\nclassical optimum (provably best without entanglement): %.4f\n", c.Value)
	fmt.Printf("quantum optimum (Tsirelson SDP):                         %.4f\n", q.Value)
	gap := q.Value - c.Value
	if gap < games.AdvantageTolerance {
		fmt.Println("\n→ NO quantum advantage for this graph: deploy the classical strategy below")
		printClassical(names, c)
		return
	}
	fmt.Printf("advantage gap:                                           +%.4f (%.1f%% more preferences met)\n",
		gap, 100*gap)
	fmt.Printf("single-Bell-pair realization achieves:                   %.4f\n", q2.Value)
	fmt.Printf("critical visibility (hardware must exceed):              %.4f\n",
		core.CriticalVisibility(c.Value, q2.Value))

	fmt.Println("\ndeployment recipe (one Bell pair per decision, Φ+, real bases):")
	rt := report.NewTable("", "class", "party-A angle (rad)", "party-B angle (rad)")
	for i, name := range names {
		rt.AddRow(name,
			fmt.Sprintf("%+.5f", pr.AnglesA[i]),
			fmt.Sprintf("%+.5f", pr.AnglesB[i]))
	}
	rt.WriteText(os.Stdout)
	fmt.Println("\neach balancer measures its qubit at the angle for its task's class;")
	fmt.Println("the outcome bit selects which of the pair's two agreed servers to use")
}

// parseGraph reads the -graph and -caching flags. An empty class name is
// rejected, a self-edge is rejected rather than ignored (the diagonal comes
// from -caching alone), and so is an edge listed twice with different
// labels, which would otherwise keep whichever came last. The class count must lie in [2, games.MaxEnumInputs]:
// the exact classical value enumerates 2^n strategies.
func parseGraph(spec, caching string) (names []string, labels [][]games.EdgeLabel, diag []bool, err error) {
	idx := map[string]int{}
	intern := func(name string) {
		if _, ok := idx[name]; !ok {
			idx[name] = len(names)
			names = append(names, name)
		}
	}
	edges := map[[2]string]games.EdgeLabel{} // keyed by the sorted endpoint pair
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.Split(tok, ":")
		if len(parts) != 2 {
			return nil, nil, nil, fmt.Errorf("bad edge %q (want NAME-NAME:{c|x})", tok)
		}
		ends := strings.Split(parts[0], "-")
		if len(ends) != 2 {
			return nil, nil, nil, fmt.Errorf("bad endpoints %q", parts[0])
		}
		var l games.EdgeLabel
		switch strings.ToLower(strings.TrimSpace(parts[1])) {
		case "c":
			l = games.Colocate
		case "x":
			l = games.Exclusive
		default:
			return nil, nil, nil, fmt.Errorf("bad label %q (want c or x)", parts[1])
		}
		a, b := strings.TrimSpace(ends[0]), strings.TrimSpace(ends[1])
		if a == "" || b == "" {
			return nil, nil, nil, fmt.Errorf("bad edge %q: empty class name", tok)
		}
		if a == b {
			return nil, nil, nil, fmt.Errorf("self-edge %q: list %s in -caching to make its same-class pairs colocate", tok, a)
		}
		key := [2]string{a, b}
		if b < a {
			key = [2]string{b, a}
		}
		if prev, ok := edges[key]; ok && prev != l {
			return nil, nil, nil, fmt.Errorf("edge %s-%s listed with both labels", key[0], key[1])
		}
		edges[key] = l
		intern(a)
		intern(b)
	}
	// Stable order for reproducible output regardless of map iteration.
	sort.Strings(names)
	reindex := map[string]int{}
	for i, n := range names {
		reindex[n] = i
	}

	n := len(names)
	if n < 2 {
		return nil, nil, nil, fmt.Errorf("need at least two classes")
	}
	if n > games.MaxEnumInputs {
		return nil, nil, nil, fmt.Errorf("%d classes: the exact classical value handles at most %d", n, games.MaxEnumInputs)
	}
	labels = make([][]games.EdgeLabel, n)
	for i := range labels {
		labels[i] = make([]games.EdgeLabel, n)
		for j := range labels[i] {
			labels[i][j] = games.Exclusive // default for unlisted pairs
		}
	}
	for e, l := range edges {
		a, b := reindex[e[0]], reindex[e[1]]
		labels[a][b], labels[b][a] = l, l
	}

	diag = make([]bool, n)
	for _, name := range strings.Split(caching, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i, ok := reindex[name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("-caching names unknown class %q", name)
		}
		diag[i] = true
	}
	return names, labels, diag, nil
}

// printClassical prints the optimal deterministic answer tables.
func printClassical(names []string, c games.ClassicalResult) {
	t := report.NewTable("", "class", "party-A answer", "party-B answer")
	for i, name := range names {
		t.AddRow(name, fmt.Sprintf("%d", c.A[i]), fmt.Sprintf("%d", c.B[i]))
	}
	t.WriteText(os.Stdout)
	fmt.Printf("achieves %.4f with zero quantum hardware\n", c.Value)
}

// buildGame constructs the XOR game over all ordered class pairs, including
// the diagonal (same-class pairs colocate iff the class is marked caching).
func buildGame(n int, labels [][]games.EdgeLabel, diag []bool) *games.XORGame {
	g := &games.XORGame{Name: "affinity", NA: n, NB: n}
	g.Prob = make([][]float64, n)
	g.Parity = make([][]int, n)
	p := 1.0 / float64(n*n)
	for x := 0; x < n; x++ {
		g.Prob[x] = make([]float64, n)
		g.Parity[x] = make([]int, n)
		for y := 0; y < n; y++ {
			g.Prob[x][y] = p
			want := games.Exclusive
			if x == y {
				if diag[x] {
					want = games.Colocate
				}
			} else {
				want = labels[x][y]
			}
			if want == games.Exclusive {
				g.Parity[x][y] = 1
			}
		}
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}
