package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/loadtest"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// This file holds E19 — the scenario-diversity experiment — and the shared
// definitions of the two promoted examples/ scenarios (GPU kernel dispatch,
// serverless affinity routing). The examples/ binaries and E19 both build
// from these helpers, so "the example" and "the experiment row" are the
// same configuration by construction rather than by copy-paste.

// GPUSchedulerConfig is the promoted examples/gpu-scheduler scenario: 64
// dispatchers routing texture-sharing (type-C) and exclusive (type-E)
// kernels onto a pool of Streaming Multiprocessors. warmup/slots are caller
// supplied so the example can run its full 12000-slot table while E19 runs
// the scaled count.
func GPUSchedulerConfig(sms, warmup, slots int) loadbalance.Config {
	return loadbalance.Config{
		NumBalancers: 64,
		NumServers:   sms,
		Warmup:       warmup,
		Slots:        slots,
		Discipline:   loadbalance.BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         7,
	}
}

// GPUSchedulerSMs is the SM-pool sweep the example tables, from comfortable
// headroom down past the Figure 4 knee.
func GPUSchedulerSMs() []int { return []int{100, 72, 64, 58, 53} }

// ServerlessAffinityNames returns the four function classes of the promoted
// examples/serverless-affinity scenario.
func ServerlessAffinityNames() []string {
	return []string{"thumbnailer", "transcoder", "ml-inference", "report-gen"}
}

// ServerlessAffinityGame builds the scenario's affinity graph as an XOR
// game: thumbnailer/transcoder share codec caches and report-gen reuses
// thumbnails (colocate edges); ML inference monopolizes the GPU and the
// transcoder starves report-gen of memory bandwidth (exclusive edges).
func ServerlessAffinityGame() *games.XORGame {
	const n = 4
	labels := make([][]games.EdgeLabel, n)
	for i := range labels {
		labels[i] = make([]games.EdgeLabel, n)
	}
	set := func(a, b int, l games.EdgeLabel) { labels[a][b], labels[b][a] = l, l }
	set(0, 1, games.Colocate)
	set(0, 2, games.Exclusive)
	set(1, 2, games.Exclusive)
	set(2, 3, games.Exclusive)
	set(0, 3, games.Colocate)
	set(1, 3, games.Exclusive)
	return games.GraphXORGame("serverless-affinity", n, labels)
}

// ServerlessAffinityWorkload is the matching arrival mix: equal-weight
// classes, with ML inference the only exclusive task type. Validated (the
// tables are same-length by construction) through the workload.Validator
// path when run via RunE.
func ServerlessAffinityWorkload() workload.MultiClass {
	return workload.MultiClass{
		Weights: []float64{1, 1, 1, 1},
		ClassTypes: []workload.TaskType{
			workload.TypeC, workload.TypeC, workload.TypeE, workload.TypeC,
		},
	}
}

// e19 is the scenario-diversity experiment: the queueing and serving
// results of E3–E6 re-examined under trace-shaped workloads (diurnal type
// mixes, bursty and cross-balancer-correlated phases), plus the two
// promoted examples/ scenarios run as first-class rows, plus the serving
// path itself under non-stationary arrival profiles.
func e19(w io.Writer, o Options) {
	// The block's eighteen simulations are independent, so they are
	// registered here in presentation order, run together (see batch), and
	// printed from the collected results.
	var runs batch

	// Part 1: N=100 at load ≈ 1.1 (the E6 regime) under four type-mix
	// processes. The quantum edge must survive non-stationarity: the pair
	// strategy never conditions on the mix, so modulation moves both
	// columns but should not erase the gap. The two runs of a row share one
	// generator prototype; RunE clones it per run (workload.Cloner).
	warmup, slots := o.n(1000), o.n(4000)
	mixes := []struct {
		name string
		gen  workload.Generator
	}{
		{"stationary", workload.Bernoulli{PC: 0.5}},
		{"diurnal-mix", &workload.DiurnalMix{PC: 0.5, Amp: 0.35, PeriodSlots: 500}},
		{"bursty", workload.NewBursty(0.8, 0.2, 0.02, 100)},
		{"correlated-bursts", workload.NewCorrelatedBursts(0.8, 0.2, 0.02, 0.9, 100)},
	}
	// pair is one table row: the same configuration under the classical
	// random baseline and under a quantum (or graph-quantum) strategy.
	type pair struct{ random, quantum *loadbalance.Result }
	mixRows := make([]pair, len(mixes))
	for i, m := range mixes {
		cfg := loadbalance.Config{
			NumBalancers: 100, NumServers: 91,
			Warmup: warmup, Slots: slots,
			Discipline: loadbalance.BatchCFirst,
			Workload:   m.gen,
			Seed:       o.Seed,
		}
		mixRows[i].random = runs.run(cfg, loadbalance.RandomStrategy{})
		mixRows[i].quantum = runs.run(cfg,
			loadbalance.NewQuantumPairedStrategy(0.95, xrand.New(o.Seed, uint64(1900+i))))
	}

	// Part 2: the promoted GPU-scheduler scenario at the knee of its SM
	// sweep — the regime the example exists to showcase.
	gpuSMs := []int{72, 58}
	gpuRows := make([]pair, len(gpuSMs))
	for i, sms := range gpuSMs {
		cfg := GPUSchedulerConfig(sms, warmup, slots)
		gpuRows[i].random = runs.run(cfg, loadbalance.RandomStrategy{})
		gpuRows[i].quantum = runs.run(cfg, loadbalance.NewQuantumPairedStrategy(0.95, xrand.New(7, 19)))
	}

	// Part 3: the promoted serverless-affinity scenario — game values plus
	// the queueing consequence of playing its optimal strategies under the
	// matching four-class mix.
	game := ServerlessAffinityGame()
	rng := xrand.New(o.Seed, 1919)
	c := game.ClassicalValue()
	q := game.QuantumValue(rng)
	saCfg := loadbalance.Config{
		NumBalancers: 100, NumServers: 91,
		Warmup: warmup, Slots: slots,
		Discipline: loadbalance.BatchSameClassC,
		Workload:   ServerlessAffinityWorkload(),
		Seed:       o.Seed,
	}
	sq := loadbalance.NewGraphPairedStrategy(game, 1.0, rng)
	sc := loadbalance.NewGraphClassicalStrategy(game)
	rq := runs.run(saCfg, sq)
	rc := runs.run(saCfg, sc)

	// Part 4: the serving path under non-stationary arrivals — the virtual
	// load harness (byte-deterministic) across steady, diurnal, flash-crowd
	// and heavy-tailed-batch profiles. Durations scale with o.Scale like
	// every other count.
	window := time.Duration(o.n(400)) * time.Millisecond
	serving := []struct {
		name string
		cfg  loadtest.Config
	}{
		{"steady", loadtest.Config{}},
		{"diurnal", loadtest.Config{Rate: workload.DiurnalProfile(2000, 0.6, window/2)}},
		{"flash-crowd", loadtest.Config{Rate: workload.FlashProfile(1500, window/2, 6, window/16)}},
		{"heavy-tail", loadtest.Config{Scenarios: []loadtest.Scenario{
			{Name: "decide", Weight: 0.7, Batch: 1},
			{Name: "heavy", Weight: 0.3, HeavyTail: &loadtest.HeavyTailBatch{Shape: 1.2, Scale: 2, Max: 256}},
		}}},
	}
	served := make([]*loadtest.Result, len(serving))
	for i, s := range serving {
		cfg := s.cfg
		cfg.Seed = xrand.Derive(o.Seed, uint64(1950+i)).Uint64()
		cfg.Duration = window
		cfg.SessionTemplate = serve.SessionRequest{PairRate: 1e6, PoolCap: 512}
		runs.do(func() {
			res, err := loadtest.RunVirtual(cfg)
			if err != nil {
				panic(err)
			}
			served[i] = res
		})
	}

	runs.wait()

	fmt.Fprintln(w, "type mix            random queue  quantum queue  ratio  colocation")
	for i, m := range mixes {
		r, e := mixRows[i].random, mixRows[i].quantum
		fmt.Fprintf(w, "%-18s %10.2f  %12.2f   %.2f  %.4f\n",
			m.name, r.QueueLen.Mean(), e.QueueLen.Mean(),
			r.QueueLen.Mean()/e.QueueLen.Mean(), e.Colocation.Rate())
	}
	fmt.Fprintln(w, "gpu-scheduler (64 dispatchers):")
	fmt.Fprintln(w, "  SMs  random delay  entangled delay  speedup")
	for i, sms := range gpuSMs {
		r, e := gpuRows[i].random, gpuRows[i].quantum
		fmt.Fprintf(w, "  %-3d  %12.2f  %15.2f  %.2fx\n",
			sms, r.Delay.Mean(), e.Delay.Mean(), r.Delay.Mean()/e.Delay.Mean())
	}
	fmt.Fprintf(w, "serverless-affinity: classical %.4f, quantum %.4f (gap %.4f)\n",
		c.Value, q.Value, q.Value-c.Value)
	fmt.Fprintf(w, "  mean queue: graph-classical %.2f | graph-quantum %.2f | preference %.4f vs %.4f\n",
		rc.QueueLen.Mean(), rq.QueueLen.Mean(),
		sc.ColocationStats().Rate(), sq.ColocationStats().Rate())
	fmt.Fprintln(w, "serving path (virtual):")
	fmt.Fprintln(w, "  profile      requests  decisions  win-rate  p99 latency")
	for i, s := range serving {
		res := served[i]
		fmt.Fprintf(w, "  %-11s %8d  %9d  %.4f    %s\n",
			s.name, res.Requests, res.Decisions, res.WinRate,
			time.Duration(res.Latency.P99NS))
	}
}
