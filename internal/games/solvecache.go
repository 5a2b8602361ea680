package games

import (
	"encoding/binary"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// Solve cache: both ClassicalValue and QuantumValue depend on a game only
// through its sign matrix M[x][y] = π(x,y)·(−1)^parity, so identical games
// (CHSH solved by every paired-strategy constructor, the ≤2^10 labelings of
// the Figure 3 K5 ensemble re-drawn thousands of times) are solved once per
// process instead of once per construction.
//
// The cache is striped: the sign-matrix key hashes to one of 2^k shards,
// each with its own mutex and CLOCK-evicting store. Under the parallel
// experiment driver and the sharded simulation runner, dozens of goroutines
// hit the cache at once; a single mutex serializes them all on a ~100 ns
// critical section, while striping lets lookups for different games proceed
// concurrently. Shard selection folds the FNV-64a hash already computed for
// the solver's restart stream, so striping adds no extra hashing.

// solveCacheMaxEntries bounds memory across ALL shards: the per-shard
// capacity is the total divided by the shard count, so reconfiguring the
// stripe width never changes the cache's memory ceiling. Far above any
// experiment's working set (Figure 3 on K_n has at most 2^(n(n−1)/2)
// distinct labelings; n=5 gives 1024), so eviction only matters for
// adversarial or exploratory workloads — which degrade to LRU-like behavior
// instead of permanently refusing to cache anything new.
const solveCacheMaxEntries = 1 << 16

// defaultSolveCacheShards is the stripe width: enough to make lock
// collisions rare at the experiment driver's worker counts (birthday bound:
// 8 workers over 16 shards collide on ~1/3 of concurrent lookups, and the
// critical section is two map operations), small enough that per-shard
// capacity stays deep.
const defaultSolveCacheShards = 16

// solveShard is one stripe: a mutex guarding a classical and a quantum
// store, plus per-shard effectiveness counters (labeled by shard index)
// that let the balance of the hash be observed at runtime.
type solveShard struct {
	mu        sync.Mutex
	classical *clockCache[ClassicalResult]
	quantum   *clockCache[QuantumResult]

	classicalHits, classicalMisses, classicalUnretained *metrics.Counter
	quantumHits, quantumMisses, quantumUnretained       *metrics.Counter
}

// solveShardSet is an immutable shard configuration. Reconfiguration
// (SetSolveCacheShards, ResetSolveCache) swaps the whole set atomically;
// a solve already in flight may finish against the old set, which at worst
// loses that one cache insert.
type solveShardSet struct {
	shards []*solveShard
	mask   uint64
	perCap int // per-shard clockCache capacity
}

// shardFor picks the stripe for a key hash by folding all eight hash bytes
// into the low one (mask ≤ 255). FNV-64a's own low bits will not do: bit k
// of the hash depends only on bits ≤ k of the key bytes, and the sign bit
// that tells two Figure 3 labelings apart is bit 7 of a float64's top byte,
// so hash&15 is the same for all 1024 of them.
func (s *solveShardSet) shardFor(h uint64) *solveShard {
	h ^= h >> 32
	h ^= h >> 16
	h ^= h >> 8
	return s.shards[h&s.mask]
}

func newSolveShardSet(n, totalCap int) *solveShardSet {
	perCap := totalCap / n
	if perCap < 1 {
		perCap = 1
	}
	s := &solveShardSet{shards: make([]*solveShard, n), mask: uint64(n - 1), perCap: perCap}
	for i := range s.shards {
		lbl := strconv.Itoa(i)
		s.shards[i] = &solveShard{
			classicalHits:       metrics.Default().Counter("solvecache_shard_hits", "solver", "classical", "shard", lbl),
			classicalMisses:     metrics.Default().Counter("solvecache_shard_misses", "solver", "classical", "shard", lbl),
			classicalUnretained: metrics.Default().Counter("solvecache_shard_unretained", "solver", "classical", "shard", lbl),
			quantumHits:         metrics.Default().Counter("solvecache_shard_hits", "solver", "quantum", "shard", lbl),
			quantumMisses:       metrics.Default().Counter("solvecache_shard_misses", "solver", "quantum", "shard", lbl),
			quantumUnretained:   metrics.Default().Counter("solvecache_shard_unretained", "solver", "quantum", "shard", lbl),
		}
	}
	return s
}

var solveShards atomic.Pointer[solveShardSet]

func init() {
	solveShards.Store(newSolveShardSet(defaultSolveCacheShards, solveCacheMaxEntries))
}

// Cache effectiveness counters, one set per solver, aggregated across all
// shards (the per-shard counters carry a "shard" label and sum to these).
// "unretained" counts entries pushed out by the clock eviction — the metric
// keeps its historical name, but it now means "a result was cached and
// later evicted" rather than "a result was never cached"; either way it is
// the signal that solveCacheMaxEntries needs revisiting if it ever climbs.
var (
	classicalHits       = metrics.Default().Counter("solvecache_hits", "solver", "classical")
	classicalMisses     = metrics.Default().Counter("solvecache_misses", "solver", "classical")
	classicalUnretained = metrics.Default().Counter("solvecache_unretained", "solver", "classical")
	quantumHits         = metrics.Default().Counter("solvecache_hits", "solver", "quantum")
	quantumMisses       = metrics.Default().Counter("solvecache_misses", "solver", "quantum")
	quantumUnretained   = metrics.Default().Counter("solvecache_unretained", "solver", "quantum")
)

// SolveCacheShards returns the current stripe width of the solve cache.
func SolveCacheShards() int { return len(solveShards.Load().shards) }

// SetSolveCacheShards reconfigures the solve cache to use n stripes,
// dropping all cached entries. n is rounded up to a power of two and
// clamped to [1, 256]; the applied value is returned. The total capacity
// bound is unchanged — per-shard capacity shrinks as the stripe count
// grows. SetSolveCacheShards(1) degenerates to the single-lock cache,
// which cmd/bench uses as the contention baseline.
func SetSolveCacheShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	p := 1
	for p < n {
		p <<= 1
	}
	solveShards.Store(newSolveShardSet(p, solveCacheMaxEntries))
	return p
}

// ResetSolveCache empties the process-wide solve cache, keeping the current
// stripe width. Benchmarks use it to measure the uncached path; no other
// caller should need it.
func ResetSolveCache() {
	cur := solveShards.Load()
	solveShards.Store(newSolveShardSet(len(cur.shards), solveCacheMaxEntries))
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
			if g.Parity[x][y] == 1 {
				s = -s
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
		}
	}
	return string(buf)
}

// solveKeyHash is FNV-64a over the sign key. One hash serves two masters:
// the quantum solver's restart stream seed (internalSolveRNG) and the shard
// index (shardFor) — both are pure functions of the game, so neither
// depends on which goroutine arrives first.
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
	set := solveShards.Load()
	sh := set.shardFor(solveKeyHash(key))

	sh.mu.Lock()
	var r ClassicalResult
	var ok bool
	if sh.classical != nil {
		r, ok = sh.classical.get(key)
	}
	sh.mu.Unlock()
	if ok {
		classicalHits.Inc()
		sh.classicalHits.Inc()
	} else {
		classicalMisses.Inc()
		sh.classicalMisses.Inc()
		r = g.classicalValueUncached()
		sh.mu.Lock()
		if sh.classical == nil {
			sh.classical = newClockCache[ClassicalResult](set.perCap)
		}
		evicted := sh.classical.put(key, r)
		sh.mu.Unlock()
		if evicted {
			classicalUnretained.Inc()
			sh.classicalUnretained.Inc()
		}
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
	set := solveShards.Load()
	sh := set.shardFor(solveKeyHash(key))

	sh.mu.Lock()
	var r QuantumResult
	var ok bool
	if sh.quantum != nil {
		r, ok = sh.quantum.get(key)
	}
	sh.mu.Unlock()
	if ok {
		quantumHits.Inc()
		sh.quantumHits.Inc()
	} else {
		quantumMisses.Inc()
		sh.quantumMisses.Inc()
		var certified bool
		if r, certified = g.certifiedQuantum(classical); !certified {
			r = g.quantumValueUncached(internalSolveRNG(key))
		}
		sh.mu.Lock()
		if sh.quantum == nil {
			sh.quantum = newClockCache[QuantumResult](set.perCap)
		}
		evicted := sh.quantum.put(key, r)
		sh.mu.Unlock()
		if evicted {
			quantumUnretained.Inc()
			sh.quantumUnretained.Inc()
		}
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
