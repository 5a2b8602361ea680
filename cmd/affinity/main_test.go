package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/games"
)

func TestParseGraphBasic(t *testing.T) {
	names, labels, diag, err := parseGraph("b-a:c,a-c:x", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names %v", names)
	}
	// a-b colocate, a-c exclusive, b-c defaulted exclusive.
	if labels[0][1] != games.Colocate || labels[1][0] != games.Colocate {
		t.Fatal("a-b should colocate")
	}
	if labels[0][2] != games.Exclusive || labels[1][2] != games.Exclusive {
		t.Fatal("a-c and b-c should be exclusive")
	}
	if !diag[0] || diag[1] || diag[2] {
		t.Fatalf("diag %v: only a is caching", diag)
	}
}

func TestParseGraphWhitespaceAndEmpties(t *testing.T) {
	names, labels, _, err := parseGraph(" x-y:C , ,y-z:X ", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("names %v", names)
	}
	// Labels are case-insensitive.
	ix := index(names, "x")
	iy := index(names, "y")
	if labels[ix][iy] != games.Colocate {
		t.Fatal("x-y should colocate")
	}
}

func index(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

func TestBuildGameStructure(t *testing.T) {
	names, labels, diag, err := parseGraph("a-b:c,a-c:x,b-c:x", "c")
	if err != nil {
		t.Fatal(err)
	}
	g := buildGame(len(names), labels, diag)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Uniform over all n² ordered pairs including the diagonal.
	if math.Abs(g.Prob[0][0]-1.0/9) > 1e-12 {
		t.Fatalf("prob %v", g.Prob[0][0])
	}
	ia, ib, ic := index(names, "a"), index(names, "b"), index(names, "c")
	if g.Parity[ia][ib] != 0 {
		t.Fatal("a-b colocate should have parity 0")
	}
	if g.Parity[ia][ic] != 1 {
		t.Fatal("a-c exclusive should have parity 1")
	}
	// Diagonal: only c is caching.
	if g.Parity[ic][ic] != 0 || g.Parity[ia][ia] != 1 {
		t.Fatal("diagonal parities wrong")
	}
}

// TestParseGraphRejectsSelfEdge: a self-edge used to land on the diagonal,
// which buildGame takes from -caching alone, so "a colocates with itself"
// silently became exclusive.
func TestParseGraphRejectsSelfEdge(t *testing.T) {
	_, _, _, err := parseGraph("a-a:c,a-b:x", "")
	if err == nil || !strings.Contains(err.Error(), "-caching") {
		t.Fatalf("self-edge: err %v, want a rejection pointing at -caching", err)
	}
}

// TestParseGraphRejectsConflictingEdge: an edge given both labels used to
// keep whichever came last. Repeating it with the same label is harmless.
func TestParseGraphRejectsConflictingEdge(t *testing.T) {
	for _, graph := range []string{"a-b:c,b-a:x", "a-b:x,a-b:c"} {
		if _, _, _, err := parseGraph(graph, ""); err == nil {
			t.Errorf("parseGraph(%q) accepted", graph)
		}
	}
	_, labels, _, err := parseGraph("a-b:c,b-a:c", "")
	if err != nil || labels[0][1] != games.Colocate {
		t.Fatalf("repeated identical edge: labels %v, err %v", labels, err)
	}
}

func TestParseGraphRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ graph, caching string }{
		{"a-b", ""},
		{"a-b-c:x", ""},
		{"a-b:y", ""},
		{"a-b:c", "z"},
		{"a-:x", ""},
		{"-b:c", ""},
	} {
		if _, _, _, err := parseGraph(tc.graph, tc.caching); err == nil {
			t.Errorf("parseGraph(%q, %q) accepted", tc.graph, tc.caching)
		}
	}
}

// TestParseGraphRejectsClassCount: fewer than two classes leaves no game,
// and more than games.MaxEnumInputs used to panic in the classical solver
// after the banner was printed.
func TestParseGraphRejectsClassCount(t *testing.T) {
	chain := func(n int) string {
		edges := make([]string, n-1)
		for i := range edges {
			edges[i] = fmt.Sprintf("c%d-c%d:x", i, i+1)
		}
		return strings.Join(edges, ",")
	}
	for _, graph := range []string{"", " , ", chain(games.MaxEnumInputs + 1), chain(games.MaxEnumInputs + 2)} {
		if _, _, _, err := parseGraph(graph, ""); err == nil {
			t.Errorf("parseGraph(%.40q) accepted", graph)
		}
	}
	names, _, _, err := parseGraph(chain(games.MaxEnumInputs), "")
	if err != nil || len(names) != games.MaxEnumInputs {
		t.Fatalf("%d classes: names %d, err %v", games.MaxEnumInputs, len(names), err)
	}
}
