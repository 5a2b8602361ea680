package loadbalance

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ShardedConfig describes a cell-decomposed simulation for the 10⁵–10⁶
// endpoint regime. The model is a cluster partitioned into Cells independent
// cells of CellBalancers balancers and CellServers servers each — the
// paper's N=100 system tiled Cells times, with no cross-cell assignment
// (each balancer only sees its own cell's servers, exactly the pod-local
// routing a production deployment of the paper's scheme would use).
//
// Shards is purely execution concurrency: how many worker goroutines run
// cells at once. Every cell derives all of its randomness from
// xrand.Derive(Seed, cell) — the deterministic fan-out contract proven in
// internal/parallel — and cell results are merged in cell-index order, so
// the merged Result is byte-identical at ANY Shards value (pinned by
// TestShardedInvariantAcrossShards).
type ShardedConfig struct {
	Cells         int // independent cells (model size = Cells × CellBalancers)
	CellBalancers int
	CellServers   int
	Warmup, Slots int
	Discipline    Discipline
	Workload      workload.Generator
	Seed          uint64
	// Shards is the worker-goroutine count (0 = the parallel package
	// default). Results never depend on it — only wall-clock time does.
	Shards int
}

// Validate checks the sharded configuration.
func (c ShardedConfig) Validate() error {
	if c.Cells <= 0 {
		return fmt.Errorf("loadbalance: need a positive cell count (Cells = %d)", c.Cells)
	}
	cell := Config{
		NumBalancers: c.CellBalancers,
		NumServers:   c.CellServers,
		Warmup:       c.Warmup,
		Slots:        c.Slots,
		Discipline:   c.Discipline,
		Workload:     c.Workload,
	}
	return cell.Validate()
}

// NumBalancers returns the total modeled balancer count.
func (c ShardedConfig) NumBalancers() int { return c.Cells * c.CellBalancers }

// CellStrategyFactory builds the strategy for one cell. It is called from
// worker goroutines, so it must derive any randomness from the cell index
// (e.g. xrand.Derive(strategySeed, uint64(cell))) rather than drawing from
// a shared stream.
type CellStrategyFactory func(cell int) Strategy

// SweepSharded regenerates the Figure 4 queue-length and delay series at
// scale: one RunSharded per load point, varying CellServers so each cell's
// local load traverses `loads`. The factory is called once per point with
// the point index and load, and must derive any randomness from those (plus
// the cell index it is handed later) so the series is identical at any
// Shards value. Points run serially — each point already fans its cells out
// over the shard workers.
func SweepSharded(base ShardedConfig, factory func(point int, load float64) CellStrategyFactory, loads []float64) (qlen, delay stats.Series, err error) {
	for j, load := range loads {
		cfg := base
		cfg.CellServers = serversForLoad(base.CellBalancers, load)
		res, rerr := RunSharded(cfg, factory(j, load))
		if rerr != nil {
			return qlen, delay, fmt.Errorf("loadbalance: sharded sweep point %d (load %.3g): %w", j, load, rerr)
		}
		if qlen.Name == "" {
			qlen.Name, delay.Name = res.Strategy, res.Strategy
		}
		// Same CI policy as SweepBoth: batch-means CI when available, the
		// per-sample CI as the fallback before enough batches complete.
		ci := res.QueueLenBM.CI95()
		if math.IsInf(ci, 1) {
			ci = res.QueueLen.CI95()
		}
		qlen.Append(load, res.QueueLen.Mean(), ci)
		delay.Append(load, res.Delay.Mean(), res.Delay.CI95())
	}
	return qlen, delay, nil
}

// RunSharded executes every cell (concurrently, Shards at a time) and merges
// the per-cell results in cell-index order into one Result. Determinism is
// two-layered: each cell's simulation is a pure function of (Seed, cell),
// and the merge is ordered by cell index — scheduling can reorder execution
// but never the fold, so the output is identical at any Shards value.
func RunSharded(cfg ShardedConfig, factory CellStrategyFactory) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	type cellOut struct {
		res Result
		err error
	}
	outs := parallel.MapN(cfg.Shards, cfg.Cells, func(cell int) cellOut {
		cellCfg := Config{
			NumBalancers: cfg.CellBalancers,
			NumServers:   cfg.CellServers,
			Warmup:       cfg.Warmup,
			Slots:        cfg.Slots,
			Discipline:   cfg.Discipline,
			Workload:     cfg.Workload,
			// Each cell gets an independent stream family member; Derive
			// reads no shared state, so cell seeds are identical whether
			// cells run serially or on any number of shard workers.
			Seed: xrand.Derive(cfg.Seed, uint64(cell)).Uint64(),
		}
		res, err := RunE(cellCfg, factory(cell))
		return cellOut{res: res, err: err}
	})

	// Deterministic merge: fold cell results in cell-index order. Welford
	// and batch-means merges are exact folds of their per-cell states, so
	// the merged moments equal a serial pass over cells 0,1,2,… regardless
	// of which shard worker ran which cell.
	merged := Result{
		Strategy:   outs[0].res.Strategy,
		Load:       float64(cfg.CellBalancers) / float64(cfg.CellServers),
		QueueLenBM: stats.NewBatchMeans(batchMeansSlots),
	}
	for cell, out := range outs {
		if out.err != nil {
			return Result{}, fmt.Errorf("loadbalance: cell %d: %w", cell, out.err)
		}
		r := &out.res
		merged.QueueLen.Merge(&r.QueueLen)
		merged.Delay.Merge(&r.Delay)
		merged.Arrived += r.Arrived
		merged.Served += r.Served
		merged.QueuedAtEnd += r.QueuedAtEnd
		merged.Colocation.AddBatch(r.Colocation.Successes(), r.Colocation.Trials())
		merged.QueueLenBM.Merge(r.QueueLenBM)
	}
	return merged, nil
}
