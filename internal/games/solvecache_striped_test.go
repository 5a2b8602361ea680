package games

import (
	"sync"
	"testing"

	"repro/internal/xrand"
)

// stripedTestEnsemble draws n distinct small games. Small alphabets keep
// the quantum ascent cheap so contention tests spend their time in the
// cache, not the solver.
func stripedTestEnsemble(n int, seed uint64) []*XORGame {
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

// shardSums reads the per-shard counters of the live shard set and returns
// (hits, misses, unretained) totals for both solvers, classical first.
func shardSums() (ch, cm, cu, qh, qm, qu int64) {
	for _, sh := range solveShards.Load().shards {
		ch += sh.classicalHits.Value()
		cm += sh.classicalMisses.Value()
		cu += sh.classicalUnretained.Value()
		qh += sh.quantumHits.Value()
		qm += sh.quantumMisses.Value()
		qu += sh.quantumUnretained.Value()
	}
	return
}

// TestStripedCacheCountersSumToTotals is the striping correctness pin:
// parallel SolveBatch traffic from several goroutines must land on every
// shard, and the per-shard hit/miss/eviction counters must sum exactly to
// the aggregate counters the unsharded cache maintained — striping changes
// where entries live, never how many lookups hit or miss.
func TestStripedCacheCountersSumToTotals(t *testing.T) {
	SetSolveCacheShards(8)
	defer SetSolveCacheShards(defaultSolveCacheShards)

	gs := stripedTestEnsemble(64, 4217)

	ch0, cm0, cu0, qh0, qm0, qu0 := shardSums()
	tch0, tcm0 := classicalHits.Value(), classicalMisses.Value()
	tqh0, tqm0 := quantumHits.Value(), quantumMisses.Value()
	tcu0, tqu0 := classicalUnretained.Value(), quantumUnretained.Value()

	// 4 goroutines × 2 passes, each pass a parallel SolveBatch over the
	// whole ensemble: first-arrival misses, everything else hits.
	const goroutines, passes = 4, 2
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				SolveBatch(gs, 4)
			}
		}()
	}
	wg.Wait()

	ch, cm, cu, qh, qm, qu := shardSums()
	ch, cm, cu = ch-ch0, cm-cm0, cu-cu0
	qh, qm, qu = qh-qh0, qm-qm0, qu-qu0
	tch, tcm := classicalHits.Value()-tch0, classicalMisses.Value()-tcm0
	tqh, tqm := quantumHits.Value()-tqh0, quantumMisses.Value()-tqm0
	tcu, tqu := classicalUnretained.Value()-tcu0, quantumUnretained.Value()-tqu0

	lookups := int64(goroutines * passes * len(gs))
	if ch+cm != lookups || qh+qm != lookups {
		t.Fatalf("lookup conservation: classical %d+%d, quantum %d+%d, want %d each",
			ch, cm, qh, qm, lookups)
	}
	if ch != tch || cm != tcm || cu != tcu {
		t.Fatalf("classical shard sums (h=%d m=%d u=%d) != totals (h=%d m=%d u=%d)",
			ch, cm, cu, tch, tcm, tcu)
	}
	if qh != tqh || qm != tqm || qu != tqu {
		t.Fatalf("quantum shard sums (h=%d m=%d u=%d) != totals (h=%d m=%d u=%d)",
			qh, qm, qu, tqh, tqm, tqu)
	}
	// Every game solves at most once per solver: misses ≤ ensemble size
	// (exactly the ensemble size unless two goroutines race the same first
	// solve, which only ever adds hits, never loses one).
	if cm < int64(len(gs)) || qm < int64(len(gs)) {
		t.Fatalf("misses below ensemble size: classical %d, quantum %d, want ≥ %d",
			cm, qm, len(gs))
	}
	// The 64-game ensemble must spread across all 8 shards (deterministic
	// given the fixed seed; a shard left cold would mean the FNV split is
	// degenerate or the mask is wrong).
	for i, sh := range solveShards.Load().shards {
		if sh.classicalMisses.Value() == 0 {
			t.Fatalf("shard %d saw no classical traffic across a 64-game ensemble", i)
		}
	}
}

// TestStripedCacheEvictionCountersSum drives tiny shards past capacity and
// checks the eviction accounting stays consistent between the per-shard and
// aggregate counters.
func TestStripedCacheEvictionCountersSum(t *testing.T) {
	// 4 shards × capacity 2 = 8 resident entries for 32 distinct games.
	solveShards.Store(newSolveShardSet(4, 8))
	defer SetSolveCacheShards(defaultSolveCacheShards)

	gs := stripedTestEnsemble(32, 9931)
	_, _, cu0, _, _, _ := shardSums()
	tcu0 := classicalUnretained.Value()

	for _, g := range gs {
		g.ClassicalValue()
	}

	_, _, cu, _, _, _ := shardSums()
	dcu, dtcu := cu-cu0, classicalUnretained.Value()-tcu0
	if dcu != dtcu {
		t.Fatalf("per-shard eviction sum %d != aggregate %d", dcu, dtcu)
	}
	if dcu == 0 {
		t.Fatal("32 distinct games through 8 total slots evicted nothing")
	}
}

// TestSetSolveCacheShardsRounding pins the knob's clamping contract.
func TestSetSolveCacheShardsRounding(t *testing.T) {
	defer SetSolveCacheShards(defaultSolveCacheShards)
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {3, 4}, {8, 8}, {17, 32}, {300, 256},
	} {
		if got := SetSolveCacheShards(tc.in); got != tc.want {
			t.Errorf("SetSolveCacheShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
		if got := SolveCacheShards(); got != tc.want {
			t.Errorf("SolveCacheShards() after set(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestStripedCacheDeterminismAcrossShardCounts: the quantum solver's
// restart stream derives from the game's key, not from shard placement, so
// re-solving after any reconfiguration must reproduce bit-identical optima.
func TestStripedCacheDeterminismAcrossShardCounts(t *testing.T) {
	defer SetSolveCacheShards(defaultSolveCacheShards)
	gs := stripedTestEnsemble(8, 512)

	SetSolveCacheShards(1)
	want := SolveBatch(gs, 2)
	for _, shards := range []int{4, 16} {
		SetSolveCacheShards(shards) // drops all entries: forces re-solve
		got := SolveBatch(gs, 2)
		for i := range gs {
			if got[i].Quantum.Bias != want[i].Quantum.Bias ||
				got[i].Classical.Bias != want[i].Classical.Bias {
				t.Fatalf("shards=%d: game %d bias (%v, %v), want (%v, %v)",
					shards, i,
					got[i].Classical.Bias, got[i].Quantum.Bias,
					want[i].Classical.Bias, want[i].Quantum.Bias)
			}
		}
	}
}

// benchCacheLookup measures warm-cache lookup throughput at a given stripe
// width under RunParallel contention — the single-lock (shards=1) vs
// striped comparison cmd/bench reports comes from this same access pattern.
func benchCacheLookup(b *testing.B, shards int) {
	SetSolveCacheShards(shards)
	defer SetSolveCacheShards(defaultSolveCacheShards)
	gs := stripedTestEnsemble(64, 4217)
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

func BenchmarkSolveCacheLookupSingleLock(b *testing.B) { benchCacheLookup(b, 1) }
func BenchmarkSolveCacheLookupStriped16(b *testing.B)  { benchCacheLookup(b, 16) }

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
