// Command qlbsim regenerates Figure 4 (experiment E3): average queue
// length (and queueing delay) versus system load N/M for N = 100 load
// balancers, comparing the paper's classical-random and quantum CHSH-paired
// strategies, with optional context baselines (-all), the server-discipline
// ablation, the cell-sharded scale-up (-scale, -shards) and the -series
// knee-curve artifact. It is the tunable companion to
// cmd/repro, whose E3 block is the committed number and whose E6 block is
// the one noise sweep.
//
// One context governs a run: SIGINT/SIGTERM or the -timeout deadline stops
// it between sweep units instead of killing the process mid-write —
// completed series are still printed, the -series file is flushed whole, a
// second signal kills the process, and the exit status is 130 on interrupt
// and 1 on timeout. A flag value that cannot describe a run exits 2 with a
// one-line message before anything runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/loadbalance"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func main() {
	n := flag.Int("balancers", 100, "number of load balancers (paper: 100)")
	slots := flag.Int("slots", 20000, "measured time slots per point")
	warmup := flag.Int("warmup", 5000, "warmup slots per point")
	seed := flag.Uint64("seed", 3, "random seed")
	all := flag.Bool("all", false, "include context baselines (round-robin, po2c, classical-paired, dedicated, oracle)")
	ablation := flag.Bool("ablation", false, "run the server-discipline ablation")
	scale := flag.Int("scale", 1, "cell count: tile the N-balancer system this many times (scale×N endpoints total); >1 selects the sharded runner")
	shards := flag.Int("shards", 0, "worker goroutines for the sharded runner (0 = GOMAXPROCS); never affects results, only wall time")
	timeout := flag.Duration("timeout", 0, "whole-run deadline (0 = none)")
	loadsFlag := flag.String("loads", "0.5,0.7,0.85,0.95,1.0,1.05,1.1,1.15,1.2,1.25,1.3,1.4", "comma-separated N/M load points")
	seriesPath := flag.String("series", "", "write the full Figure 4 knee curve (queue length AND delay, ±95% CI per strategy) to this CSV file")
	flag.Parse()

	loads, err := checkFlags(*n, *slots, *warmup, *scale, *loadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qlbsim:", err)
		os.Exit(2)
	}
	base := loadbalance.Config{
		NumBalancers: *n,
		Warmup:       *warmup,
		Slots:        *slots,
		Discipline:   loadbalance.BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         *seed,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Once the run is stopping, a second signal takes the default action.
	context.AfterFunc(ctx, stop)

	switch {
	case *scale > 1:
		runScaled(ctx, base, loads, *seed, *scale, *shards)
	case *ablation:
		runDisciplineAblation(ctx, base, loads, *seed)
	default:
		runFigure4(ctx, base, loads, *seed, *all, *seriesPath)
	}
	if err := ctx.Err(); err != nil {
		fmt.Printf("\nsweep interrupted: %v (completed units were flushed)\n", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(1)
		}
		os.Exit(130)
	}
}

// maxServers caps the servers one load point simulates, cells × round(N/load):
// a load of 1e-9 at N = 100 would otherwise ask for 10¹¹ server queues and
// die out of memory.
const maxServers = 1 << 20

// checkFlags rejects the numeric flags no run can use and returns the
// parsed -loads list.
func checkFlags(n, slots, warmup, cells int, loads string) ([]float64, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("-balancers %d: want at least 1", n)
	case slots < 1:
		return nil, fmt.Errorf("-slots %d: want at least 1", slots)
	case warmup < 0:
		return nil, fmt.Errorf("-warmup %d: want at least 0", warmup)
	case cells < 1:
		return nil, fmt.Errorf("-scale %d: want at least 1", cells)
	}
	return parseLoads(loads, n, cells)
}

// parseLoads parses the comma-separated -loads list for n balancers in each
// of cells cells: every load must be finite and positive, and its server
// count at most maxServers.
func parseLoads(s string, n, cells int) ([]float64, error) {
	var loads []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("-loads: bad load value %q: want a finite number > 0", tok)
		}
		if servers := float64(cells) * math.Round(float64(n)/v); servers > maxServers {
			return nil, fmt.Errorf("-loads: load %g needs %.0f servers, over the %d cap", v, servers, maxServers)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

func runFigure4(ctx context.Context, base loadbalance.Config, loads []float64, seed uint64, all bool, seriesPath string) {
	fmt.Printf("=== E3 / Figure 4: mean queue length vs load (N=%d, P(C)=0.5, discipline=%v) ===\n\n",
		base.NumBalancers, base.Discipline)

	factories := map[string]loadbalance.StrategyFactory{
		"classical-random": func() loadbalance.Strategy { return loadbalance.RandomStrategy{} },
		"quantum-chsh": func() loadbalance.Strategy {
			return loadbalance.NewQuantumPairedStrategy(1.0, xrand.New(seed, 0x9))
		},
	}
	order := []string{"classical-random", "quantum-chsh"}
	if all {
		factories["round-robin"] = func() loadbalance.Strategy { return &loadbalance.RoundRobinStrategy{} }
		factories["power-of-two"] = func() loadbalance.Strategy { return loadbalance.PowerOfTwoStrategy{} }
		factories["classical-paired"] = func() loadbalance.Strategy { return loadbalance.NewClassicalPairedStrategy() }
		factories["dedicated"] = func() loadbalance.Strategy { return loadbalance.DedicatedStrategy{FractionC: 0.33} }
		factories["oracle"] = func() loadbalance.Strategy { return loadbalance.OracleStrategy{} }
		order = append(order, "round-robin", "power-of-two", "classical-paired", "dedicated", "oracle")
	}

	// One sweep per strategy; a cancellation between sweeps keeps the
	// completed series (each a pure function of the seed) and drops the
	// rest, so the table and CSV below stay internally consistent.
	series := map[string]stats.Series{}
	delays := map[string]stats.Series{}
	var swept []string
	for _, name := range order {
		if ctx.Err() != nil {
			break
		}
		series[name], delays[name] = loadbalance.SweepBoth(base, factories[name], loads, 0)
		swept = append(swept, name)
	}
	if len(swept) == 0 {
		return
	}
	order = swept

	header := "load(N/M)"
	for _, name := range order {
		header += fmt.Sprintf("  %18s", name)
	}
	fmt.Println(header)
	for i, load := range loads {
		row := fmt.Sprintf("%-9.2f", load)
		for _, name := range order {
			row += fmt.Sprintf("  %12.2f ±%4.2f", series[name].Y[i], series[name].CI[i])
		}
		fmt.Println(row)
	}

	const threshold = 5.0
	fmt.Printf("\nknee (queue length crossing %.0f):\n", threshold)
	for _, name := range order {
		s := series[name]
		k := s.KneeX(threshold)
		if math.IsNaN(k) {
			fmt.Printf("  %-18s beyond the sweep range\n", name)
		} else {
			fmt.Printf("  %-18s %.3f\n", name, k)
		}
	}
	tc, tp := loadbalance.TheoreticalKnees()
	fmt.Printf("theory: classical saturates near %.2f, perfect colocation near %.2f;\n", tc, tp)
	fmt.Println("the quantum knee lands between, later than classical — Figure 4's claim")

	if seriesPath != "" {
		// The full knee curve: queue length and delay side by side, so a
		// replot needs exactly one file. Suffixes distinguish the two
		// metrics for each strategy.
		both := make([]stats.Series, 0, 2*len(order))
		for _, name := range order {
			q := series[name]
			q.Name = name + "/qlen"
			d := delays[name]
			d.Name = name + "/delay"
			both = append(both, q, d)
		}
		writeCSV(seriesPath, report.FromSeries("figure4-knee", "load", both...))
	}
}

func writeCSV(path string, t *report.Table) {
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func runDisciplineAblation(ctx context.Context, base loadbalance.Config, loads []float64, seed uint64) {
	fmt.Printf("=== discipline ablation (footnote 2): quantum minus random queue length ===\n\n")
	disciplines := []loadbalance.Discipline{
		loadbalance.BatchCFirst, loadbalance.SingleCFirst, loadbalance.FIFOBatch, loadbalance.EFirst,
	}

	type pair struct{ q, c stats.Series }
	var results []pair
	for j, d := range disciplines {
		if ctx.Err() != nil {
			break
		}
		cfg := base
		cfg.Discipline = d
		var p pair
		p.q = loadbalance.SweepLoad(cfg, func() loadbalance.Strategy {
			return loadbalance.NewQuantumPairedStrategy(1.0, xrand.New(seed, uint64(j)+200))
		}, loads, 0)
		p.c = loadbalance.SweepLoad(cfg, func() loadbalance.Strategy { return loadbalance.RandomStrategy{} }, loads, 0)
		results = append(results, p)
	}
	if len(results) == 0 {
		return
	}
	disciplines = disciplines[:len(results)]
	fmt.Print("load(N/M)")
	for _, d := range disciplines {
		fmt.Printf("  %14v", d)
	}
	fmt.Println()
	for i, load := range loads {
		fmt.Printf("%-9.2f", load)
		for j := range disciplines {
			diff := results[j].q.Y[i] - results[j].c.Y[i]
			fmt.Printf("  %14.2f", diff)
		}
		fmt.Println()
	}
	fmt.Println("\nnegative = quantum better; the advantage holds under batching disciplines")
	fmt.Println("(BatchCFirst, FIFOBatch, EFirst) and disappears under SingleCFirst, which")
	fmt.Println("cannot exploit colocation — matching the paper's mechanism")
}
