// Command repro runs every experiment end-to-end (E1–E20, E18 reserved) with reduced but
// statistically meaningful sizes and prints the consolidated tables recorded
// in EXPERIMENTS.md. Use -full for publication-scale runs (slower), or the
// per-experiment binaries (cmd/chsh, cmd/xorgame, cmd/qlbsim, cmd/ecmpstudy,
// cmd/latency) for finer control.
//
// Independent experiments fan out over a worker pool (-workers, default
// GOMAXPROCS); output is buffered per experiment and emitted in E1..E20
// order, byte-identical at any worker count for a fixed seed.
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
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

func main() {
	full := flag.Bool("full", false, "publication-scale runs (slower)")
	seed := flag.Uint64("seed", 42, "master seed")
	workers := flag.Int("workers", 0, "worker goroutines for the experiment fan-out (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "whole-run deadline (0 = none)")
	metricsPath := flag.String("metrics", "", "write a JSON run artifact to this path (- for stdout)")
	frontier := flag.String("frontier", "", "write the E20 advantage-frontier CSV artifact to this path (- for stdout) and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this path")
	flag.Parse()

	// Inner fan-outs (sweeps, advantage trials, quantum searches) share the
	// same pool width as the experiment-level fan-out.
	parallel.SetDefaultWorkers(*workers)

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

	// Artifact mode: regenerate the committed advantage-frontier grid
	// (byte-identical at any -workers and at any shard of the grid — each
	// point has its own derived stream) and exit. The committed
	// FRONTIER_advantage.csv is this command at the default seed and scale.
	if *frontier != "" {
		out := os.Stdout
		if *frontier != "-" {
			f, err := os.Create(*frontier)
			if err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := experiments.WriteFrontierCSV(out, experiments.Options{Seed: *seed, Scale: scale}); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if *frontier != "-" {
			fmt.Fprintln(os.Stderr, "wrote", *frontier)
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
	timings, runErr := experiments.RunAll(ctx, os.Stdout, experiments.All(),
		experiments.Options{Seed: *seed, Scale: scale}, *workers)
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
