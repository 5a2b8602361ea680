package games

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// TestSolveCacheCounters checks the hit/miss accounting against a scripted
// access pattern: cold solve = miss, repeat solve = hit, for both solvers.
func TestSolveCacheCounters(t *testing.T) {
	reg := metrics.Default()
	read := func(name, solver string) float64 {
		v, _ := reg.Get(metrics.Key(name, "solver", solver))
		return v
	}

	ResetSolveCache()
	g := NewCHSH()
	rng := xrand.New(3, 4)

	cm0, ch0 := read("solvecache_misses", "classical"), read("solvecache_hits", "classical")
	qm0, qh0 := read("solvecache_misses", "quantum"), read("solvecache_hits", "quantum")

	g.ClassicalValue() // cold: miss
	g.ClassicalValue() // warm: hit
	g.QuantumValue(rng)
	g.QuantumValue(rng)

	if d := read("solvecache_misses", "classical") - cm0; d != 1 {
		t.Fatalf("classical misses moved %v, want 1", d)
	}
	if d := read("solvecache_hits", "classical") - ch0; d != 1 {
		t.Fatalf("classical hits moved %v, want 1", d)
	}
	if d := read("solvecache_misses", "quantum") - qm0; d != 1 {
		t.Fatalf("quantum misses moved %v, want 1", d)
	}
	if d := read("solvecache_hits", "quantum") - qh0; d != 1 {
		t.Fatalf("quantum hits moved %v, want 1", d)
	}
}
