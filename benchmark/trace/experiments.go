package main

// Layer: experiments — cmd/repro's E1–E20 blocks, measured on the real
// program through its -metrics artifact and its -frontier mode.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/benchmark/suite"
)

// reproArtifact is the part of cmd/repro's -metrics artifact read here.
type reproArtifact struct {
	WallMS      float64 `json:"wall_ms"`
	Experiments []struct {
		ID     string  `json:"id"`
		WallMS float64 `json:"wall_ms"`
	} `json:"experiments"`
	Metrics []struct {
		Key   string  `json:"key"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// experimentIDs are the blocks cmd/repro prints (E18 is reserved).
var experimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E19", "E20"}

// probeExperiments runs `repro -metrics` once on nproc workers — the traced
// twin of a repro_sweep repetition — and reads each experiment's host time
// and the solve cache's hit share from the artifact; then times the
// -frontier grid on nproc workers and on one, which is the fan-out's
// speed-up on this box. It returns the sweep's process wall time and the
// run time the artifact itself reports.
func probeExperiments(m values, e suite.Env) (process time.Duration, inRun time.Duration, err error) {
	repro, err := suite.Binary(e.Root, "repro")
	if err != nil {
		return 0, 0, err
	}
	seed := strconv.FormatUint(e.Seed, 10)
	workers := strconv.Itoa(runtime.NumCPU())
	artifact := filepath.Join(e.Root, "benchmark", "out", "repro_metrics.json")

	start := time.Now()
	if _, err := exec.Command(repro, "-seed", seed, "-workers", workers, "-metrics", artifact).Output(); err != nil {
		return 0, 0, fmt.Errorf("repro -metrics: %w", err)
	}
	process = time.Since(start)
	raw, err := os.ReadFile(artifact)
	if err != nil {
		return 0, 0, err
	}
	var art reproArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", artifact, err)
	}
	walls := make(map[string]float64, len(art.Experiments))
	for _, x := range art.Experiments {
		walls[x.ID] = x.WallMS
	}
	for _, id := range experimentIDs {
		ms, ok := walls[id]
		if !ok {
			return 0, 0, fmt.Errorf("repro -metrics: artifact has no experiment %s", id)
		}
		m["experiments.wall_ms."+id] = ms
	}
	var hits, misses float64
	for _, kv := range art.Metrics {
		switch kv.Key {
		case "solvecache_hits{solver=classical}", "solvecache_hits{solver=quantum}":
			hits += kv.Value
		case "solvecache_misses{solver=classical}", "solvecache_misses{solver=quantum}":
			misses += kv.Value
		}
	}
	if hits+misses == 0 {
		return 0, 0, fmt.Errorf("repro -metrics: artifact has no solve-cache counters")
	}
	m["games.cache_hit_frac.repro"] = hits / (hits + misses)

	frontier := func(workers string) (time.Duration, error) {
		start := time.Now()
		out, err := exec.Command(repro, "-seed", seed, "-workers", workers, "-frontier", "-").Output()
		d := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("repro -frontier: %w", err)
		}
		if e.Seed == suite.GoldenSeed {
			want, err := os.ReadFile(filepath.Join(e.Root, "FRONTIER_advantage.csv"))
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(out, want) {
				return 0, fmt.Errorf("oracle: repro -frontier on %s workers differs from FRONTIER_advantage.csv", workers)
			}
		}
		return d, nil
	}
	wide, err := frontier(workers)
	if err != nil {
		return 0, 0, err
	}
	narrow, err := frontier("1")
	if err != nil {
		return 0, 0, err
	}
	m["experiments.frontier_ms"] = wide.Seconds() * 1e3
	m["parallel.speedup.frontier"] = narrow.Seconds() / wide.Seconds()
	return process, time.Duration(art.WallMS * float64(time.Millisecond)), nil
}
