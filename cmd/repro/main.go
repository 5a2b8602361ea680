// Command repro runs every experiment end-to-end (E1–E20) with reduced but
// statistically meaningful sizes and prints the consolidated tables recorded
// in EXPERIMENTS.md. Use -full for publication-scale runs (5× every round,
// slot and trial count). Each experiment has one implementation, in
// internal/experiments, and this is the one command that regenerates it.
//
// It also writes the two committed artifacts and exits: -frontier PATH the
// E20 advantage-frontier grid (FRONTIER_advantage.csv), -serving PATH the
// E18 traffic mixes and E21 overload curve (BENCH_loadtest.json, which
// ignores -full). Both are pure functions of -seed, byte-identical at any
// -workers.
//
// Independent experiments fan out over a worker pool whose width is
// -workers (default GOMAXPROCS), and so do the sweeps, class solves and
// quantum searches inside them: the one width is passed down in
// experiments.Options. Output is buffered per experiment and emitted in
// E1..E20 order, byte-identical at any worker count for a fixed seed.
//
// One context governs the run: SIGINT/SIGTERM or the -timeout deadline
// stops it. Experiments already running finish and every block whose
// predecessors finished is still printed; a second signal kills the process.
// An experiment that panics stops the run the same way, with its ID, panic
// value and stack in the error. Exit status: 130 on interrupt, 1 on a
// timeout or failure. Each experiment is a pure function of (seed,
// experiment number), so a stopped run is simply run again.
//
// Observability: -metrics out.json writes a structured run artifact (config,
// seed, git describe, per-experiment wall times, solve-cache and
// worker-pool counters — see README "Observability");
// -cpuprofile/-memprofile write standard pprof profiles of the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	full := flag.Bool("full", false, "publication-scale runs (slower)")
	seed := flag.Uint64("seed", 42, "master seed")
	workers := flag.Int("workers", 0, "width of every fan-out: experiments and the sweeps and solves inside them (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "whole-run deadline (0 = none)")
	metricsPath := flag.String("metrics", "", "write a JSON run artifact to this path (- for stdout)")
	frontier := flag.String("frontier", "", "write the E20 advantage-frontier CSV artifact to this path (- for stdout) and exit")
	serving := flag.String("serving", "", "write the E18/E21 serving-path JSON artifact to this path (- for stdout) and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	scale := 1.0
	if *full {
		scale = 5
	}
	opts := experiments.Options{Seed: *seed, Scale: scale, Workers: *workers}

	if *frontier != "" || *serving != "" {
		var err error
		if *frontier != "" {
			err = writeArtifact(*frontier, func(w io.Writer) error {
				return experiments.WriteFrontierCSV(w, opts)
			})
		}
		if err == nil && *serving != "" {
			err = writeArtifact(*serving, func(w io.Writer) error { return experiments.WriteServingJSON(w, opts) })
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		return
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

	start := time.Now()
	timings, runErr := experiments.RunAll(ctx, os.Stdout, experiments.All(), opts)
	wall := time.Since(start)
	if runErr != nil {
		fmt.Printf("\nrun interrupted after %v: %v\n", wall.Round(time.Millisecond), runErr)
	} else {
		fmt.Printf("\nall experiments complete in %v\n", wall.Round(time.Millisecond))
	}

	// The metrics artifact and heap profile flush even on an interrupted
	// run — a partial artifact beats a missing one when diagnosing why a
	// sweep died.
	if *metricsPath != "" {
		art := metrics.NewArtifact("repro")
		art.Seed = *seed
		art.Config = map[string]any{
			"full":    *full,
			"scale":   scale,
			"workers": *workers,
		}
		art.WallMS = float64(wall.Nanoseconds()) / 1e6
		for _, tm := range timings {
			art.Experiments = append(art.Experiments, metrics.ExperimentMetrics{
				ID: tm.ID, WallMS: float64(tm.Wall.Nanoseconds()) / 1e6,
			})
		}
		art.Metrics = metrics.Default().Snapshot()
		if err := art.WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if *metricsPath != "-" {
			fmt.Fprintln(os.Stderr, "wrote", *metricsPath)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if runErr != nil {
		// Conventional exit statuses: 130 for an operator interrupt, 1 for
		// a failed or timed-out run.
		if errors.Is(runErr, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// writeArtifact writes one artifact to path (- for stdout) and reports the
// file it wrote on stderr.
func writeArtifact(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}
