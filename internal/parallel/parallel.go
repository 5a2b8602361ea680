// Package parallel is the deterministic fan-out layer used by every
// embarrassingly parallel site in this repository: the E1–E20 experiment
// driver and the runs inside its blocks, the Figure 3 advantage-probability
// trials, the Figure 4 load sweeps, and the ECMP candidate searches.
//
// The contract that keeps results byte-identical to a serial run at any
// worker count is simple: a job is a pure function of its index. Callers
// that need randomness draw one base seed from their own stream *before*
// fanning out and give job i the independent stream xrand.Derive(base, i);
// no job ever touches a shared RNG. Results are collected into a slice
// indexed by job, so scheduling order cannot leak into output order.
//
// Pools are per-call (no global state), so nested fan-outs — a parallel
// experiment driver running a parallel sweep — compose without deadlock;
// the total goroutine count is bounded by the product of the active calls'
// worker counts, all of which default to GOMAXPROCS.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// defaultWorkers overrides the GOMAXPROCS-derived default when positive.
// It is set once at startup by binaries exposing a -workers flag.
var defaultWorkers atomic.Int64

// DefaultWorkers returns the worker count used when a call passes
// workers <= 0: the last SetDefaultWorkers value if positive, else
// GOMAXPROCS.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the process-wide default worker count (the
// -workers flag of the cmd/ binaries). n <= 0 restores the GOMAXPROCS
// default. Results never depend on this value — only wall-clock time does.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Pool accounting. Busy time is summed per worker and folded in once per
// fan-out (one atomic add per worker, not per job); worker-seconds is the
// fan-out's wall time × its worker count, so cumulative utilization is
// busy_ns / worker_ns. The utilization gauge carries that cumulative ratio
// after every fan-out. None of this touches any RNG stream — results stay
// byte-identical with instrumentation in place.
var (
	fanouts    = metrics.Default().Counter("parallel_fanouts_total")
	jobsTotal  = metrics.Default().Counter("parallel_jobs_total")
	busyNs     = metrics.Default().Counter("parallel_busy_ns_total")
	workerNs   = metrics.Default().Counter("parallel_worker_ns_total")
	poolUtil   = metrics.Default().Gauge("parallel_utilization")
	fanoutTime = metrics.Default().Timer("parallel_fanout_wall")
	// jobWait is the queue wait: how long after the fan-out began each job
	// was picked up by a worker. Its mean growing with job index is the
	// signature of a pool narrower than the offered work.
	jobWait = metrics.Default().Timer("parallel_job_wait")
)

// recordFanout folds one completed fan-out into the pool accounting.
func recordFanout(workers, jobs int, wall time.Duration) {
	fanouts.Inc()
	jobsTotal.Add(int64(jobs))
	workerNs.Add(int64(wall) * int64(workers))
	fanoutTime.Observe(wall)
	if wn := workerNs.Value(); wn > 0 {
		poolUtil.Set(float64(busyNs.Value()) / float64(wn))
	}
}

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
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, panics propagate natively. The
		// whole loop is busy time. There is no queue, so queue wait is
		// identically zero and is NOT observed per job — a clock read per
		// job was measurable overhead inside benchmarked loops (the E2
		// serial-vs-parallel comparison runs both passes through this path
		// on a single-core machine, so any per-job cost lands directly in
		// the reported speedup).
		start := time.Now()
		defer func() {
			wall := time.Since(start)
			busyNs.Add(int64(wall))
			recordFanout(1, n, wall)
		}()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	start := time.Now()
	var next atomic.Int64
	var failed atomic.Bool
	panics := make(chan jobPanic, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			workerStart := time.Now()
			defer func() {
				busyNs.Add(int64(time.Since(workerStart)))
				wg.Done()
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				jobWait.Observe(time.Since(start))
				if err := protect(i, fn); err != nil {
					failed.Store(true)
					panics <- *err
					return
				}
			}
		}()
	}
	wg.Wait()
	recordFanout(workers, n, time.Since(start))
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

// ForEach runs fn(i) for every i in [0, n) on the default worker pool.
// fn must be safe for concurrent invocation and must not depend on
// cross-job ordering.
func ForEach(n int, fn func(i int)) { dispatch(0, n, fn) }

// ForEachN is ForEach with an explicit worker count (<= 0 means default;
// 1 runs serially on the calling goroutine).
func ForEachN(workers, n int, fn func(i int)) { dispatch(workers, n, fn) }

// Map runs fn(i) for every i in [0, n) on the default worker pool and
// returns the results in index order, independent of scheduling.
func Map[R any](n int, fn func(i int) R) []R { return MapN[R](0, n, fn) }

// MapN is Map with an explicit worker count (<= 0 means default; 1 runs
// serially on the calling goroutine).
func MapN[R any](workers, n int, fn func(i int) R) []R {
	out := make([]R, n)
	dispatch(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
