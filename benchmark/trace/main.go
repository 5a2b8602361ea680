// Command trace (qtrace) is the traced pass of qbench: it runs one workload
// with spans and exact counts recorded around every call into a layer's
// public function, replays the workload's plan at successive depths (the
// onion), probes each layer in isolation, and prints the per-layer metrics
// BENCHMARK.json declares. Nothing inside the program under test is
// instrumented; everything is timed from outside, from this package's files,
// one file per layer.
//
// This is the binary a refactor of a layer's internals can break. The
// end-to-end binary does not depend on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
	"repro/internal/loadtest"
)

// values collects measured per-layer metrics by name.
type values map[string]float64

// perOp times fn(n) — n back-to-back operations — repeatedly for about
// budget (at least three batches after a warm one) and returns the median
// nanoseconds per operation over the batches.
func perOp(budget time.Duration, n int, fn func(n int)) float64 {
	fn(n)
	var samples []float64
	for begin := time.Now(); len(samples) < 3 || time.Since(begin) < budget; {
		start := time.Now()
		fn(n)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return benchlib.Median(samples)
}

// depth names one layer of the onion.
type depth struct {
	Depth   int     `json:"depth"`
	Entry   string  `json:"entry"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// onion replays a serving workload's plan at four depths and derives each
// depth's self time by subtraction of the depths' median totals. The tracer
// it returns holds the last round's spans and counts.
func onion(m values, e suite.Env, w suite.Workload, budget time.Duration) ([]depth, suite.Sim, *tracer, error) {
	inst, err := w.Setup(e)
	if err != nil {
		return nil, suite.Sim{}, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	var p *plan
	var mix *benchlib.Mix
	var driver *suite.HandlerDriver
	entry := "loadtest.RunVirtualPlan"
	if cfg, ok := suite.VirtualConfig(w.Name, e); ok {
		if p, err = planFromConfig(cfg); err != nil {
			return nil, suite.Sim{}, nil, err
		}
	} else {
		entry = "(*serve.Server).ServeHTTP"
		mix = suite.HandlerMix(e)
		p = planFromMix(mix)
		if driver, err = suite.NewHandlerDriver(mix); err != nil {
			return nil, suite.Sim{}, nil, err
		}
	}

	// Recording round: which requests reach their session, and the simulated
	// statistics the inner depths must reproduce.
	accepted := make([]bool, len(p.reqs))
	want, err := replayServe(p, nil, accepted)
	if err != nil {
		return nil, suite.Sim{}, nil, err
	}
	var late int64
	if mix == nil {
		// The warm repetition's digest is the full loadtest.Result.
		var res loadtest.Result
		if err := json.Unmarshal([]byte(inst.Warm.Digest), &res); err != nil {
			return nil, suite.Sim{}, nil, fmt.Errorf("%s: warm result: %w", w.Name, err)
		}
		if res.Decisions != want.decisions || res.Wins != want.wins || res.Shed != want.shed {
			return nil, suite.Sim{}, nil, fmt.Errorf("%s: depth 1 is not depth 0's work: %d decisions / %d wins / %d shed, RunVirtualPlan reports %d / %d / %d",
				w.Name, want.decisions, want.wins, want.shed, res.Decisions, res.Wins, res.Shed)
		}
		late = res.Late
	} else if inst.Warm.Decisions != want.decisions {
		return nil, suite.Sim{}, nil, fmt.Errorf("%s: depth 1 played %d decisions, depth 0 delivered %d", w.Name, want.decisions, inst.Warm.Decisions)
	}

	// Rounds of all four depths, each depth with spans, plus the outermost
	// depth this package's own loop drives once more without them: the gap
	// between the two is the tracing overhead. The last round's spans are
	// the ones kept.
	var totals [4][]float64
	var untraced []float64
	var counts coreCounts
	var t *tracer
	for begin := time.Now(); len(totals[0]) < 2 || time.Since(begin) < budget; {
		t = newTracer()
		runtime.GC() // every depth starts from a collected heap, not from its predecessor's garbage
		t.enter(0)
		sp := -1
		if mix == nil {
			sp = t.begin("loadtest", "RunVirtualPlan", 0)
		}
		start := time.Now()
		got, err := inst.Rep()
		d0 := time.Since(start)
		t.end(sp)
		if err != nil {
			return nil, suite.Sim{}, nil, err
		}
		if got != inst.Warm {
			return nil, suite.Sim{}, nil, fmt.Errorf("%s: traced-pass repetition is not the fixed work:\n got %+v\nwant %+v", w.Name, got, inst.Warm)
		}
		var d1 depthStats
		if mix != nil {
			// handler_mix drives ServeHTTP itself, so depth 0 has spans too,
			// and the repetition just timed is its untraced twin.
			untraced = append(untraced, d0.Seconds()*1e3)
			runtime.GC()
			h, err := replayHandler(driver, mix, t)
			if err != nil {
				return nil, suite.Sim{}, nil, err
			}
			d0 = h.elapsed
			runtime.GC()
			if d1, err = replayServe(p, t, nil); err != nil {
				return nil, suite.Sim{}, nil, err
			}
		} else {
			// Depth 1 twice, with and without spans, in alternating order so
			// that neither always runs on the heap the other left behind.
			var bare depthStats
			for _, traced := range [2]bool{len(untraced)%2 == 0, len(untraced)%2 != 0} {
				runtime.GC()
				if traced {
					d1, err = replayServe(p, t, nil)
				} else {
					bare, err = replayServe(p, nil, nil)
				}
				if err != nil {
					return nil, suite.Sim{}, nil, err
				}
			}
			untraced = append(untraced, bare.elapsed.Seconds()*1e3)
		}
		var d2 depthStats
		runtime.GC()
		if d2, counts, err = replayCore(p, accepted, want, t); err != nil {
			return nil, suite.Sim{}, nil, err
		}
		runtime.GC()
		d3, _ := replaySupply(p, accepted, t)
		for i, d := range []time.Duration{d0, d1.elapsed, d2.elapsed, d3.elapsed} {
			totals[i] = append(totals[i], d.Seconds()*1e3)
		}
	}

	var medians []float64
	for i := range totals {
		medians = append(medians, benchlib.Median(totals[i]))
	}
	self := benchlib.SelfTimes(medians)
	depths := []depth{
		{0, entry, medians[0], self[0]},
		{1, "(*serve.Server).DecideBatchDeadline", medians[1], self[1]},
		{2, "(*core.Session).Round", medians[2], self[2]},
		{3, "(*netsim.Engine).RunUntil", medians[3], self[3]},
	}
	m["onion.entry_self_ms"], m["onion.serve_self_ms"] = self[0], self[1]
	m["onion.core_self_ms"], m["onion.supply_self_ms"] = self[2], self[3]
	traced := medians[1]
	if mix != nil {
		traced = medians[0]
	}
	m["trace.overhead_frac"] = 1 - benchlib.Median(untraced)/traced

	m["core.quantum_frac"] = ratio(counts.quantum, counts.rounds)
	m["entangle.pairs_used_frac"] = ratio(counts.supply.consumed, counts.supply.delivered)
	m["entangle.expired_frac"] = ratio(counts.supply.expired, counts.supply.added)
	m["netsim.events"] = float64(counts.supply.events)
	m["admission.shed_frac"] = ratio(want.shed, int64(len(p.reqs)))
	m["admission.goodput_frac"] = ratio(want.decisions-late, p.decisions())
	m["admission.late_frac"] = ratio(late, want.decisions)
	return depths, inst.Warm, t, nil
}

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sweep is the traced pass of repro_sweep. The serving onion does not apply
// to it: its breakdown is the per-experiment host times probeExperiments
// reads from the -metrics run, so the serving-side counters read 0 and the
// one onion figure that exists is what the process spends outside its run —
// start-up, flag handling, writing the artifact.
func sweep(m values, e suite.Env, w suite.Workload, process, inRun time.Duration) ([]depth, suite.Sim, error) {
	inst, err := w.Setup(e)
	if err != nil {
		return nil, suite.Sim{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	start := time.Now()
	got, err := inst.Rep()
	untraced := time.Since(start)
	if err != nil {
		return nil, suite.Sim{}, err
	}
	if inst.Warm.Digest != "" && got != inst.Warm {
		return nil, suite.Sim{}, fmt.Errorf("%s: traced-pass repetition is not the fixed work:\n got %+v\nwant %+v", w.Name, got, inst.Warm)
	}
	entrySelf := (process - inRun).Seconds() * 1e3
	m["onion.entry_self_ms"], m["onion.serve_self_ms"] = entrySelf, 0
	m["onion.core_self_ms"], m["onion.supply_self_ms"] = 0, 0
	m["trace.overhead_frac"] = 1 - untraced.Seconds()/process.Seconds()
	m["core.quantum_frac"], m["entangle.pairs_used_frac"], m["entangle.expired_frac"], m["netsim.events"] = 0, 0, 0, 0
	m["admission.shed_frac"], m["admission.late_frac"] = 0, 0
	m["admission.goodput_frac"] = ratio(got.Decisions, got.Attempted)
	return []depth{
		{0, "cmd/repro (process)", process.Seconds() * 1e3, entrySelf},
		{1, "experiments (run, from the -metrics artifact)", inRun.Seconds() * 1e3, inRun.Seconds() * 1e3},
	}, got, nil
}

func main() {
	root := flag.String("root", ".", "checkout root")
	name := flag.String("workload", "handler_mix", "workload to trace")
	seed := flag.Uint64("seed", suite.GoldenSeed, "workload seed")
	seconds := flag.Float64("seconds", 15, "nominal host seconds; every probe's budget scales with it")
	short := flag.Bool("short", false, "1/20-size smoke run")
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *short); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed uint64, seconds float64, short bool) error {
	spec, err := benchlib.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	e := suite.Env{Root: root, Seed: seed, Scale: 1}
	if short {
		e.Scale = 1.0 / 20
	}
	var w suite.Workload
	for _, c := range suite.Workloads {
		if c.Name == name {
			w = c
		}
	}
	if w.Setup == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// A probe's budget is a fixed share of the nominal window: 40ms of a
	// 15-second run for an in-process micro-probe, 0.8s for a loopback one.
	share := seconds / 15
	unit := time.Duration(share * float64(40*time.Millisecond))

	m := values{}
	t := newTracer()
	var depths []depth
	var sim suite.Sim
	serving := name != "repro_sweep"
	if serving {
		// The workload's own replay first, on a process nothing has warmed
		// or fragmented yet.
		if depths, sim, t, err = onion(m, e, w, time.Duration(share*float64(4*time.Second))); err != nil {
			return err
		}
	}

	probeNetsim(m, unit)
	probeEntangle(m, unit)
	if err := probeCore(m, unit); err != nil {
		return err
	}
	probeGames(m, unit)
	if err := probeAdmission(m, unit); err != nil {
		return err
	}
	probeStats(m, unit)
	probeParallel(m, unit)
	if err := probeLoadbalance(m); err != nil {
		return err
	}
	if err := probeLoadtest(m, unit); err != nil {
		return err
	}
	if err := probeServe(m, unit); err != nil { // after probeCore: subtracts its fallback round
		return err
	}
	process, inRun, err := probeExperiments(m, e)
	if err != nil {
		return err
	}
	if !serving {
		if depths, sim, err = sweep(m, e, w, process, inRun); err != nil {
			return err
		}
	}
	if err := probeQcoordd(m, root, time.Duration(share*float64(800*time.Millisecond))); err != nil { // after probeServe: divides by its handler time
		return err
	}

	out := struct {
		Workload string        `json:"workload"`
		Seed     uint64        `json:"seed"`
		Host     benchlib.Host `json:"host"`
		Sampling string        `json:"sampling"`
		Depths   []depth       `json:"depths"`
		*tracer
	}{name, seed, benchlib.Fingerprint(), fmt.Sprintf("1 request in %d keeps its spans; counts are exact", sampleEvery), depths, t}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "benchmark", "out", "trace.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}

	line, err := benchlib.NewLine(spec.PerLayer, m)
	if err != nil {
		return err
	}
	line.Correct, line.Attempted, line.Failed = sim.Failed == 0, sim.Attempted, sim.Failed
	fmt.Printf("workload %s  seed %d  traced pass: onion depths (host ms, median over rounds)\n", name, seed)
	for _, d := range depths {
		fmt.Printf("  depth %d  %-48s total %10.3f  self %10.3f\n", d.Depth, d.Entry, d.TotalMS, d.SelfMS)
	}
	return line.Print(spec.PerLayer)
}
