package loadbalance

import (
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// sweepAt runs the E3 sweep (shrunk) with a fixed worker-pool width.
func sweepAt(workers int, seed uint64) stats.Series {
	base := Config{
		NumBalancers: 40,
		Warmup:       200,
		Slots:        800,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         seed,
	}
	loads := []float64{0.8, 0.95, 1.05, 1.2}
	return SweepLoad(base, func() Strategy {
		return NewQuantumPairedStrategy(1.0, xrand.New(seed, 3))
	}, loads, workers)
}

// TestSweepLoadWorkerInvariance is the tentpole's core guarantee at the
// sweep layer: the series is byte-identical whether the points run on one
// worker or eight.
func TestSweepLoadWorkerInvariance(t *testing.T) {
	t.Parallel()
	a := sweepAt(1, 42)
	b := sweepAt(8, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep differs across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}

func TestSweepDelayWorkerInvariance(t *testing.T) {
	t.Parallel()
	base := Config{
		NumBalancers: 40,
		Warmup:       200,
		Slots:        800,
		Discipline:   BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         7,
	}
	loads := []float64{0.9, 1.1}
	run := func(workers int) stats.Series {
		_, delay := SweepBoth(base, func() Strategy { return RandomStrategy{} }, loads, workers)
		return delay
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("delay sweep differs across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}
