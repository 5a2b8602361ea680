package games

import (
	"runtime"

	"repro/internal/parallel"
)

// Batched solving: AdvantageCensus solves one game per switching class (54
// on K7), and the per-game cost is small enough that fan-out overhead
// matters. The batch pipeline runs games through the internal/parallel pool
// in chunks, so each worker amortizes its scratch arenas (the classical and
// quantum solver pools) over a run of games instead of a single solve.
//
// Determinism: each solve is a pure function of its game — the classical
// enumeration is deterministic and the quantum restart stream is derived
// from the game's own sign matrix — so batch order, chunk size, and worker
// count cannot affect any result. Solving the same games one by one, in
// any order, yields bit-identical BatchResults.

// BatchResult pairs the two optima of one game, in the order the games were
// submitted.
type BatchResult struct {
	Classical ClassicalResult
	Quantum   QuantumResult
}

// HasAdvantage reports whether the quantum value strictly exceeds the
// classical value beyond AdvantageTolerance — the Figure 3 predicate.
func (r BatchResult) HasAdvantage() bool {
	return r.Quantum.Bias > r.Classical.Bias+AdvantageTolerance
}

// batchChunk caps the number of games one worker claims at a time: large
// enough to amortize scratch reuse and pool scheduling, small enough to
// keep the tail balanced.
const batchChunk = 16

// chunkFor picks the actual chunk size: at most batchChunk, but never so
// coarse that the pool sees fewer than ~4 chunks per worker. A fixed
// 16-game chunk would hand K7's 54 class representatives to 4 chunks, and
// on a wide pool most workers would sit idle. Chunk size only affects
// scheduling, never results: each game is solved from its own index
// regardless of which chunk carried it.
func chunkFor(n, workers int) int {
	c := batchChunk
	if byBalance := n / (4 * workers); byBalance < c {
		c = byBalance
	}
	if c < 1 {
		c = 1
	}
	return c
}

// SolveBatch solves every game both classically and quantum over the
// parallel pool (workers <= 0 means GOMAXPROCS; 1 runs serially) and
// returns the results in input order. Solves go through the solve cache, so
// duplicate games within a batch cost one solve plus lookups.
func SolveBatch(gs []*XORGame, workers int) []BatchResult {
	n := len(gs)
	if n == 0 {
		return nil
	}
	out := make([]BatchResult, n)
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	chunk := chunkFor(n, w)
	chunks := (n + chunk - 1) / chunk
	parallel.ForEachN(workers, chunks, func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, n)
		for i, g := range gs[lo:hi] {
			c := g.cachedClassical()
			out[lo+i] = BatchResult{Classical: c, Quantum: g.cachedQuantum(&c)}
		}
	})
	return out
}
