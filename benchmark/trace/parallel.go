package main

// Layer: parallel — the deterministic fan-out under repro's experiments,
// sweeps and batch solves.

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// probeParallel measures what the pool charges to hand out one trivial item
// at nproc workers. The speed-up it buys is measured on the real program, in
// experiments.go.
func probeParallel(m values, unit time.Duration) {
	var touched atomic.Int64
	workers := runtime.NumCPU()
	m["parallel.dispatch_ns_per_item"] = perOp(unit, 1<<14, func(n int) {
		parallel.ForEachN(workers, n, func(int) { touched.Add(1) })
	})
}
