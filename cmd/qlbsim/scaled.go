package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/loadbalance"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// runScaled is the -scale mode: the paper's N-balancer system tiled `cells`
// times (pod-local routing — each balancer only sees its own cell's
// servers), run through the sharded runner and merged deterministically.
// Everything printed to stdout is a pure function of the flags and the
// seed: the shard count moves only wall-clock time (reported on stderr), so
// the same invocation is byte-identical at -shards 1 and -shards 64.
func runScaled(ctx context.Context, base loadbalance.Config, loads []float64, seed uint64, cells, shards int) {
	fmt.Printf("=== E3 at scale: %d cells × N=%d balancers = %d endpoints (discipline=%v) ===\n\n",
		cells, base.NumBalancers, cells*base.NumBalancers, base.Discipline)

	shardedBase := loadbalance.ShardedConfig{
		Cells:         cells,
		CellBalancers: base.NumBalancers,
		Warmup:        base.Warmup,
		Slots:         base.Slots,
		Discipline:    base.Discipline,
		Workload:      base.Workload,
		Seed:          seed,
		Shards:        shards,
	}

	// Per-cell strategy streams: qbase is drawn once from the master seed,
	// each sweep point derives its own family member, and each cell derives
	// from that — so a cell's stream depends only on (seed, point, cell),
	// never on scheduling.
	qbase := xrand.New(seed, 0x9).Uint64()
	type entry struct {
		name    string
		factory func(point int, load float64) loadbalance.CellStrategyFactory
	}
	strategies := []entry{
		{"classical-random", func(int, float64) loadbalance.CellStrategyFactory {
			return func(cell int) loadbalance.Strategy { return loadbalance.RandomStrategy{} }
		}},
		{"quantum-chsh", func(point int, _ float64) loadbalance.CellStrategyFactory {
			pbase := xrand.Derive(qbase, uint64(point)).Uint64()
			return func(cell int) loadbalance.Strategy {
				return loadbalance.NewQuantumPairedStrategy(1.0, xrand.Derive(pbase, uint64(cell)))
			}
		}},
	}

	series := map[string]stats.Series{}
	var swept []string
	start := time.Now()
	for _, s := range strategies {
		if ctx.Err() != nil {
			break
		}
		qlen, _, err := loadbalance.SweepSharded(shardedBase, s.factory, loads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlbsim:", err)
			os.Exit(1)
		}
		series[s.name] = qlen
		swept = append(swept, s.name)
	}
	if len(swept) == 0 {
		return
	}

	header := "load(N/M)"
	for _, name := range swept {
		header += fmt.Sprintf("  %18s", name)
	}
	fmt.Println(header)
	for i, load := range loads {
		row := fmt.Sprintf("%-9.2f", load)
		for _, name := range swept {
			row += fmt.Sprintf("  %12.2f ±%4.2f", series[name].Y[i], series[name].CI[i])
		}
		fmt.Println(row)
	}

	if len(loads) > 1 {
		const threshold = 5.0
		fmt.Printf("\nknee (queue length crossing %.0f):\n", threshold)
		for _, name := range swept {
			s := series[name]
			k := s.KneeX(threshold)
			if math.IsNaN(k) {
				fmt.Printf("  %-18s beyond the sweep range\n", name)
			} else {
				fmt.Printf("  %-18s %.3f\n", name, k)
			}
		}
	}

	// Wall time goes to stderr: stdout must stay byte-identical across
	// shard counts, and wall time is exactly what the shard count changes.
	fmt.Fprintf(os.Stderr, "scaled sweep: %d cells × %d points × %d strategies in %.1fs (shards=%d)\n",
		cells, len(loads), len(swept), time.Since(start).Seconds(), shards)
}
