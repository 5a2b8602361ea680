// Package parallel is the deterministic fan-out layer used by every
// embarrassingly parallel site in this repository: the E1–E20 experiment
// driver and the runs inside its blocks, the Figure 3 census's class solves,
// the Figure 4 load sweeps, and the ECMP candidate searches.
//
// The contract that keeps results byte-identical to a serial run at any
// worker count is simple: a job is a pure function of its index. Callers
// that need randomness draw one base seed from their own stream *before*
// fanning out and give job i the independent stream xrand.Derive(base, i);
// no job ever touches a shared RNG. Results are collected into a slice
// indexed by job, so scheduling order cannot leak into output order.
//
// Every call takes its width as an argument (workers <= 0 means GOMAXPROCS,
// 1 runs serially on the calling goroutine); there is no process-wide
// default to set. Pools are per-call, so nested fan-outs — a parallel
// experiment driver running a parallel sweep — compose without deadlock;
// the total goroutine count is bounded by the product of the active calls'
// widths. Results never depend on the width — only wall-clock time does.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// jobPanic carries a worker panic to the caller's goroutine.
type jobPanic struct {
	index int
	value any
}

// dispatch runs jobs 0..n-1 over min(workers, n) goroutines via a shared
// atomic counter (the nuclio-style work-stealing counter: no channel per
// job, no per-job goroutine). The first panicking job is re-raised on the
// calling goroutine after all workers have stopped, so a fan-out failure
// behaves like the serial loop's failure.
func dispatch(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, panics propagate natively.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var next atomic.Int64
	var failed atomic.Bool
	panics := make(chan jobPanic, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := protect(i, fn); err != nil {
					failed.Store(true)
					panics <- *err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(panics)
	// Re-raise the lowest-index panic so the error is deterministic even
	// when several workers fail in the same fan-out.
	var first *jobPanic
	for p := range panics {
		if first == nil || p.index < first.index {
			q := p
			first = &q
		}
	}
	if first != nil {
		panic(fmt.Sprintf("parallel: job %d panicked: %v", first.index, first.value))
	}
}

// protect runs one job, converting a panic into a value.
func protect(i int, fn func(int)) (jp *jobPanic) {
	defer func() {
		if r := recover(); r != nil {
			jp = &jobPanic{index: i, value: r}
		}
	}()
	fn(i)
	return nil
}

// ForEachN runs fn(i) for every i in [0, n) on a pool of `workers`
// goroutines. fn must be safe for concurrent invocation and must not depend
// on cross-job ordering.
func ForEachN(workers, n int, fn func(i int)) { dispatch(workers, n, fn) }

// MapN runs fn(i) for every i in [0, n) on a pool of `workers` goroutines
// and returns the results in index order, independent of scheduling.
func MapN[R any](workers, n int, fn func(i int) R) []R {
	out := make([]R, n)
	dispatch(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
