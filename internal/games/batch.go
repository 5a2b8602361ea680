package games

import (
	"repro/internal/parallel"
)

// Batched solving: large sweeps (the Figure 3 ensemble, randomized
// robustness studies) need thousands of games solved per sweep point, and
// the per-game cost is small enough that fan-out overhead matters. The
// batch pipeline runs games through the internal/parallel pool in chunks,
// so each worker amortizes its scratch arenas (the classical and quantum
// solver pools) over a run of games instead of a single solve.
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
// 16-game chunk left a 150-trial Figure 3 batch with only 10 chunks — on a
// wide pool most workers sat idle through the tail, which is exactly the
// granularity loss the E2 speedup measurement exposed. Chunk size only
// affects scheduling, never results: each game is solved from its own
// index regardless of which chunk carried it.
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
// parallel pool (workers <= 0 means the pool default; 1 runs serially) and
// returns the results in input order. Solves go through the solve cache, so
// duplicate games within a batch cost one solve plus lookups.
func SolveBatch(gs []*XORGame, workers int) []BatchResult {
	return SolveBatchFrom(len(gs), func(i int) *XORGame { return gs[i] }, workers)
}

// SolveBatchFrom is SolveBatch for generated inputs: gen(i) must be a pure
// function of i (callers that need randomness derive a per-index stream
// from a base seed drawn before the fan-out, per the internal/parallel
// contract). The generator runs inside the worker chunks, so game
// construction parallelizes along with the solving.
func SolveBatchFrom(n int, gen func(i int) *XORGame, workers int) []BatchResult {
	if n <= 0 {
		return nil
	}
	out := make([]BatchResult, n)
	w := workers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	chunk := chunkFor(n, w)
	chunks := (n + chunk - 1) / chunk
	parallel.ForEachN(workers, chunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			g := gen(i)
			c := g.cachedClassical()
			out[i] = BatchResult{Classical: c, Quantum: g.cachedQuantum(&c)}
		}
	})
	return out
}
