// Command bench writes BENCH_loadtest.json (regenerate with
// `make bench-loadtest`): the deterministic serving-path load test — six
// virtual-time traffic mixes plus the goodput-vs-offered-load overload curve
// (EXPERIMENTS.md E21). The report is a pure function of -seed, so CI
// regenerates it and requires a byte-for-byte match with the committed copy:
// it is a behaviour oracle for the decide path, not a timing.
//
// Timings live in benchmark/ (qbench, declared by BENCHMARK.json), the
// repo's one performance stick.
package main

import (
	"flag"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func main() {
	out := flag.String("out", "BENCH_loadtest.json", "report path (- for stdout)")
	seed := flag.Uint64("seed", 42, "master seed")
	wall := flag.Bool("loadtest-wall", false, "append an uncommitted wall-clock section against a live loopback server")
	flag.Parse()

	runLoadtestBench(*out, *seed, *wall)
}
