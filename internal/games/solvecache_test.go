package games

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// cacheTestEnsemble draws n distinct small games. Small alphabets keep the
// quantum ascent cheap so cache tests spend their time in the cache, not
// the solver.
func cacheTestEnsemble(n int, seed uint64) []*XORGame {
	rng := xrand.New(seed, 77)
	seen := make(map[string]bool, n)
	gs := make([]*XORGame, 0, n)
	for len(gs) < n {
		g := randomDenseXORGame(3, 3, rng)
		if k := g.signKey(); !seen[k] {
			seen[k] = true
			gs = append(gs, g)
		}
	}
	return gs
}

// TestSolveCacheDropsWholeMapAtCap pins the cap policy on the put helper
// with a small cap: the map never exceeds it, the insert that would
// overflow drops everything and reports how much, and overwriting a present
// key at the cap drops nothing.
func TestSolveCacheDropsWholeMapAtCap(t *testing.T) {
	const max = 4
	m := make(map[string]int)
	dropped := 0
	for i := 0; i < 11; i++ {
		before := len(m)
		d := putCapped(m, fmt.Sprint("k", i), i, max)
		if d != 0 && d != before {
			t.Fatalf("insert %d reported %d dropped, map held %d", i, d, before)
		}
		if (d != 0) != (before == max) {
			t.Fatalf("insert %d into a map of %d (cap %d) dropped %d", i, before, max, d)
		}
		if len(m) > max {
			t.Fatalf("insert %d left %d entries, cap %d", i, len(m), max)
		}
		dropped += d
	}
	// 11 inserts through cap 4: drops at the 5th and 9th, 4 entries each,
	// leaving k8..k10.
	if dropped != 8 || len(m) != 3 {
		t.Fatalf("dropped %d, %d left; want 8 and 3", dropped, len(m))
	}
	putCapped(m, "k11", 11, max)
	if d := putCapped(m, "k9", -9, max); d != 0 || len(m) != max || m["k9"] != -9 {
		t.Fatalf("overwrite at the cap: dropped %d, len %d, k9=%d; want 0, %d, -9", d, len(m), m["k9"], max)
	}
}

// TestSolveCacheEvictionCounter fills the REAL classical map to its cap
// with filler keys, so the next distinct solve takes the drop path: the
// solvecache_unretained counter moves by exactly the entries dropped, and a
// dropped game simply re-solves, bit for bit, on its next appearance.
func TestSolveCacheEvictionCounter(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()
	gs := cacheTestEnsemble(2, 912)
	want := SolveBatch(gs[:1], 1)[0]

	solveCache.mu.Lock()
	for i := 0; len(solveCache.classical) < solveCacheMaxEntries; i++ {
		solveCache.classical[fmt.Sprint("filler", i)] = ClassicalResult{}
	}
	solveCache.mu.Unlock()

	before, misses := classicalUnretained.Value(), classicalMisses.Value()
	gs[1].ClassicalValue()
	if got := classicalUnretained.Value() - before; got != solveCacheMaxEntries {
		t.Fatalf("unretained moved %d on the overflowing insert, want %d", got, solveCacheMaxEntries)
	}
	solveCache.mu.Lock()
	n := len(solveCache.classical)
	solveCache.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d classical entries after the drop, want 1", n)
	}

	again := SolveBatch(gs[:1], 1)[0]
	if got := classicalMisses.Value() - misses; got != 2 {
		t.Fatalf("classical misses moved %d, want 2 (the overflowing solve and the re-solve)", got)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("re-solve after the drop differs:\n got %+v\nwant %+v", again, want)
	}
}

// TestSolveCacheConcurrentSolveBatchRace is the cache's -race workload:
// several goroutines run parallel SolveBatches over the same K5 labelings.
// Every lookup is a hit or a miss on the global counters, every game
// misses at least once, and whoever populated an entry, the results equal
// the serial run.
func TestSolveCacheConcurrentSolveBatchRace(t *testing.T) {
	n := 256
	if testing.Short() {
		n = 64
	}
	gs := make([]*XORGame, n)
	for i := range gs {
		gs[i] = k5Labeling(i)
	}
	ResetSolveCache()
	want := SolveBatch(gs, 1)
	ResetSolveCache()

	ch0, cm0 := classicalHits.Value(), classicalMisses.Value()
	qh0, qm0 := quantumHits.Value(), quantumMisses.Value()
	const goroutines = 8
	got := make([][]BatchResult, goroutines)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = SolveBatch(gs, 4)
		}()
	}
	wg.Wait()

	ch, cm := classicalHits.Value()-ch0, classicalMisses.Value()-cm0
	qh, qm := quantumHits.Value()-qh0, quantumMisses.Value()-qm0
	if lookups := int64(goroutines * n); ch+cm != lookups || qh+qm != lookups {
		t.Fatalf("lookup conservation: classical %d+%d, quantum %d+%d, want %d each", ch, cm, qh, qm, lookups)
	}
	// Two goroutines racing the same first solve both miss; nobody misses
	// a game that is already in.
	if cm < int64(n) || qm < int64(n) {
		t.Fatalf("misses below ensemble size: classical %d, quantum %d, want ≥ %d", cm, qm, n)
	}
	for i, res := range got {
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("goroutine %d: results differ from the serial run", i)
		}
	}
}

// TestSignKeyIgnoresParityOfZeroCells: a cell that never occurs contributes
// ±0 to the sign matrix, so its parity must not split one game into two
// cache entries (and, through internalSolveRNG, two restart streams).
func TestSignKeyIgnoresParityOfZeroCells(t *testing.T) {
	build := func(parity int) *XORGame {
		g := &XORGame{
			Name: "zero-cell", NA: 2, NB: 2,
			Prob:   [][]float64{{0.4, 0}, {0.3, 0.3}},
			Parity: [][]int{{0, parity}, {0, 1}},
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g0, g1 := build(0), build(1)
	if g0.signKey() != g1.signKey() {
		t.Fatal("parity of a zero-probability cell changed the sign key")
	}

	ResetSolveCache()
	qm0, qh0 := quantumMisses.Value(), quantumHits.Value()
	q0 := g0.QuantumValue(nil)
	q1 := g1.QuantumValue(nil)
	if m, h := quantumMisses.Value()-qm0, quantumHits.Value()-qh0; m != 1 || h != 1 {
		t.Fatalf("two solves of one sign matrix: %d misses, %d hits; want 1 and 1", m, h)
	}
	if !reflect.DeepEqual(q0, q1) {
		t.Fatalf("results differ:\n%+v\n%+v", q0, q1)
	}
}

// BenchmarkSolveCacheLookup measures warm-cache lookup throughput under
// RunParallel contention.
func BenchmarkSolveCacheLookup(b *testing.B) {
	gs := cacheTestEnsemble(64, 4217)
	SolveBatch(gs, 1) // warm every entry
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g := gs[i&(len(gs)-1)]
			i++
			if r := g.cachedClassical(); r.Bias <= 0 {
				b.Fatal("nonpositive bias from cache")
			}
		}
	})
}

// TestSolveCacheHitAllocs pins what a hit costs: the key (2) plus one row
// table and one slab per copied matrix or answer table — however many rows
// the game has. Copying a row at a time made a K5 quantum hit 20.
func TestSolveCacheHitAllocs(t *testing.T) {
	g := RandomGraphXORGame(5, 0.5, xrand.New(31, 7))
	g.ClassicalValue()
	g.QuantumValue(nil)
	if n := testing.AllocsPerRun(100, func() { g.QuantumValue(nil) }); n > 8 {
		t.Errorf("quantum cache hit: %v allocs, want ≤ 8", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.ClassicalValue() }); n > 4 {
		t.Errorf("classical cache hit: %v allocs, want ≤ 4", n)
	}
}
