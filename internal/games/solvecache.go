package games

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// Solve cache: both ClassicalValue and QuantumValue depend on a game only
// through its sign matrix M[x][y] = π(x,y)·(−1)^parity, so identical games
// (CHSH solved by every paired-strategy constructor, the ≤2^10 labelings of
// the Figure 3 K5 ensemble re-drawn thousands of times) are solved once per
// process instead of once per construction.
//
// One mutex over two maps. Both decisions were measured (PR 23 in
// CHANGES.md, 2-vCPU box) and should be revisited only on new evidence:
//
//   - One lock, not stripes: 16-way striping read 0.93× the single lock's
//     warm lookup throughput at 2 workers (733 k vs 786 k lookups/s through
//     SolveBatch), and BenchmarkSolveCacheLookup at -cpu 2 reads ≈ 217 ns
//     here against ≈ 235 ns for the striped CLOCK cache this replaced.
//     Building the key and copying the result out dominate a lookup; the
//     critical section is one map operation.
//   - Drop-all at the cap, not CLOCK eviction: a cold seed-42 sweep makes
//     3 695 lookups, holds 1 144 entries and evicts 0; a default cmd/xorgame
//     run solves ≈ 10 k games. The cap is a memory bound that no committed
//     workload reaches, so the cheapest policy that honours it is the right
//     one, and a drop only costs re-solving (results are pure functions of
//     the game).
//
// What would justify revisiting either: a committed workload that fills the
// cache, or games.cache_hit_ns (benchmark/) growing with workers on a host
// with more than two cores.

// solveCacheMaxEntries bounds each map. Far above any experiment's working
// set (Figure 3 on K_n has at most 2^(n(n−1)/2) distinct labelings; n=5
// gives 1024).
const solveCacheMaxEntries = 1 << 16

var solveCache = struct {
	mu        sync.Mutex
	classical map[string]ClassicalResult
	quantum   map[string]QuantumResult
}{
	classical: make(map[string]ClassicalResult),
	quantum:   make(map[string]QuantumResult),
}

// putCapped stores key → v in m. An insert that would grow m past max first
// drops the whole map; the number of entries dropped is returned.
func putCapped[V any](m map[string]V, key string, v V, max int) (dropped int) {
	if _, present := m[key]; !present && len(m) >= max {
		dropped = len(m)
		clear(m)
	}
	m[key] = v
	return dropped
}

// Cache effectiveness counters, one set per solver. "unretained" counts the
// entries dropped at the cap; it is the signal that solveCacheMaxEntries
// needs revisiting if it ever leaves zero.
var (
	classicalHits       = metrics.Default().Counter("solvecache_hits", "solver", "classical")
	classicalMisses     = metrics.Default().Counter("solvecache_misses", "solver", "classical")
	classicalUnretained = metrics.Default().Counter("solvecache_unretained", "solver", "classical")
	quantumHits         = metrics.Default().Counter("solvecache_hits", "solver", "quantum")
	quantumMisses       = metrics.Default().Counter("solvecache_misses", "solver", "quantum")
	quantumUnretained   = metrics.Default().Counter("solvecache_unretained", "solver", "quantum")
)

// ResetSolveCache empties the process-wide solve cache. Benchmarks use it to
// measure the uncached path; no other caller should need it.
func ResetSolveCache() {
	solveCache.mu.Lock()
	clear(solveCache.classical)
	clear(solveCache.quantum)
	solveCache.mu.Unlock()
}

// signKey serializes the sign matrix into a map key. Shape is included so
// a 1×4 and a 2×2 game with equal flattened entries cannot collide.
func (g *XORGame) signKey() string {
	buf := make([]byte, 0, 16+8*g.NA*g.NB)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NA))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NB))
	for x := 0; x < g.NA; x++ {
		for y := 0; y < g.NB; y++ {
			s := g.Prob[x][y]
			switch {
			case s == 0:
				// −0 and +0 differ in bits but not in the sign matrix: a
				// cell that never occurs keys the same whatever its parity.
				s = 0
			case g.Parity[x][y] == 1:
				s = -s
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
		}
	}
	return string(buf)
}

// solveKeyHash is FNV-64a over the sign key: the seed of the quantum
// solver's restart stream (internalSolveRNG), a pure function of the game.
func solveKeyHash(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// internalSolveRNG builds the quantum solver's restart stream from the
// game's own key, making the solve a pure function of the game: calls are
// deterministic no matter which goroutine first populates the cache.
func internalSolveRNG(key string) *xrand.RNG {
	return xrand.New(solveKeyHash(key), 0x7151e150)
}

// cachedClassical returns the memoized classical optimum, computing it on
// first use. The returned result shares no slices with the cache.
func (g *XORGame) cachedClassical() ClassicalResult {
	key := g.signKey()
	solveCache.mu.Lock()
	r, ok := solveCache.classical[key]
	solveCache.mu.Unlock()
	if ok {
		classicalHits.Inc()
	} else {
		classicalMisses.Inc()
		r = g.classicalValueUncached()
		solveCache.mu.Lock()
		dropped := putCapped(solveCache.classical, key, r, solveCacheMaxEntries)
		solveCache.mu.Unlock()
		classicalUnretained.Add(int64(dropped))
	}
	return ClassicalResult{Bias: r.Bias, Value: r.Value, A: copyInts(r.A), B: copyInts(r.B)}
}

// cachedQuantum returns the memoized quantum optimum, computing it on first
// use: dual certificate first, and for every game that does not settle the
// Burer–Monteiro ascent on a restart stream derived from the game itself.
// classical is the game's classical optimum if the caller already holds it,
// else nil; the certificate then enumerates for itself, uncounted, so one
// quantum solve is one quantum miss and nothing else on the counters. The
// returned result shares no slices with the cache.
func (g *XORGame) cachedQuantum(classical *ClassicalResult) QuantumResult {
	key := g.signKey()
	solveCache.mu.Lock()
	r, ok := solveCache.quantum[key]
	solveCache.mu.Unlock()
	if ok {
		quantumHits.Inc()
	} else {
		quantumMisses.Inc()
		var certified bool
		if r, certified = g.certifiedQuantum(classical); !certified {
			r = g.quantumValueUncached(internalSolveRNG(key), g.NA+g.NB, fullRankRestarts)
		}
		solveCache.mu.Lock()
		dropped := putCapped(solveCache.quantum, key, r, solveCacheMaxEntries)
		solveCache.mu.Unlock()
		quantumUnretained.Add(int64(dropped))
	}
	return QuantumResult{
		Bias:  r.Bias,
		Value: r.Value,
		U:     copyMatrix(r.U),
		V:     copyMatrix(r.V),
		Dot:   copyMatrix(r.Dot),
	}
}

func copyInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}

// copyMatrix copies a rectangular matrix: two allocations however many rows.
func copyMatrix(m [][]float64) [][]float64 {
	if len(m) == 0 {
		return [][]float64{}
	}
	out := newMatrix(len(m), len(m[0]))
	for i, row := range m {
		copy(out[i], row)
	}
	return out
}
