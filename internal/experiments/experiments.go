// Package experiments holds the paper's experiments (E1–E20, E18 reserved) as
// self-contained, writer-directed jobs, plus the parallel runner that
// regenerates them all. cmd/repro is a thin CLI over RunAll.
//
// Every experiment derives all of its randomness from xrand.New(Seed, k)
// with a per-experiment constant k, writes only to the io.Writer it is
// handed, and shares no mutable state with its siblings — which is what
// lets RunAll fan the set out over a worker pool and still emit output
// byte-identical to a serial run.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/ecmp"
	"repro/internal/entangle"
	"repro/internal/faults"
	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/qkd"
	"repro/internal/qsim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Options parametrizes a full experiment run.
type Options struct {
	// Seed is the master seed; every experiment derives its streams from
	// (Seed, experiment-number).
	Seed uint64
	// Scale multiplies every round/slot/trial count. 1 is the reduced but
	// statistically meaningful default; cmd/repro -full uses 5; tests and
	// benchmarks use fractions.
	Scale float64
}

// n scales a base count, never below 1.
func (o Options) n(base int) int {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	v := int(math.Round(float64(base) * s))
	if v < 1 {
		v = 1
	}
	return v
}

// batch collects the independent simulations of one experiment block and
// runs them together on the default worker pool — SweepLoad's contract one
// level up. The block builds its strategies serially, in the order it always
// has (so construction-time draws keep their order), registers one job per
// run, waits, and only then prints from the collected results; each job
// derives its randomness from its own Config.Seed and writes only its own
// result, so the block's bytes are the same at any worker count. Everything
// that draws from a stream the block owns (solving a game, building a
// strategy from it) therefore happens before the first job is registered.
type batch []func()

// do registers an arbitrary job.
func (b *batch) do(job func()) { *b = append(*b, job) }

// run registers one loadbalance run; the result is valid after wait.
func (b *batch) run(cfg loadbalance.Config, s loadbalance.Strategy) *loadbalance.Result {
	res := new(loadbalance.Result)
	b.do(func() { *res = loadbalance.Run(cfg, s) })
	return res
}

// wait runs every registered job and returns when all have finished.
func (b batch) wait() { parallel.ForEach(len(b), func(i int) { b[i]() }) }

// Experiment is one reproducible unit: a figure or table of the paper.
// Title is the full banner line (it includes the ID, matching the historical
// cmd/repro output byte-for-byte); ID alone keys timings, errors and the
// -metrics artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options)
}

// All returns the experiments in their presentation order. E18 is reserved
// by the serving-path load-test family (see EXPERIMENTS.md), which reports
// through BENCH_loadtest.json rather than a repro block.
func All() []Experiment {
	return []Experiment{
		{"E1", "E1: CHSH values (§2)", e1},
		{"E2", "E2 / Figure 3: P(quantum advantage), random XOR games on K5", e2},
		{"E3", "E3 / Figure 4: mean queue length vs load, N=100", e3},
		{"E4", "E4 / Figure 2: decision latency vs quality", e4},
		{"E5", "E5 / §4.2: ECMP no quantum advantage", e5},
		{"E6", "E6: noise robustness (queue length at load 1.1)", e6},
		{"E7", "E7: entanglement supply vs demand", e7},
		{"E8", "E8: Mermin-GHZ 3-player game", e8},
		{"E9", "E9: supply-limited load balancing (E3 × E7)", e9},
		{"E10", "E10: multi-class XOR-game scheduling (E + two cache subtypes, same-class batching)", e10},
		{"E11", "E11: repeater chains (visibility compounding & rate crossover)", e11},
		{"E12", "E12: Bell certification (deployment acceptance test)", e12},
		{"E13", "E13: cache-level mechanism (LRU textures, 3 classes)", e13},
		{"E14", "E14: W-state leader election (a further primitive, per the conclusion)", e14},
		{"E15", "E15: noise-adaptive measurement (anisotropic channels)", e15},
		{"E16", "E16: E91 quantum key distribution (refs [24,45] on our substrate)", e16},
		{"E17", "E17: chaos — fault injection and graceful degradation", e17},
		{"E19", "E19: scenario diversity — non-stationary workloads and promoted examples", e19},
		{"E20", "E20: the latency-constrained advantage frontier (deadline × distance × visibility)", e20},
	}
}

// Timing is one experiment's measured wall time from a RunAll pass.
type Timing struct {
	ID   string
	Wall time.Duration
}

// RunAll regenerates exps, fanning them out over `workers` goroutines (<= 0
// means the parallel package default) while emitting each experiment's output
// block to w in list order as soon as it and all of its predecessors have
// finished. Output bytes are identical at any worker count.
//
// Each streamed block's wall time is returned in list order and recorded in
// the default metrics registry (experiment_wall{id=...} timers plus an
// experiments_completed counter), so a -metrics artifact written after the
// run carries the per-experiment breakdown.
//
// An experiment that panics becomes an error naming its ID, with the panic
// value and stack, and cancels the experiments not yet started; so does ctx
// being done. Experiments already running finish, and those whose
// predecessors all finished are still streamed, so an interrupted run prints
// everything up to the first gap. The error returned is the one that stopped
// the first missing block: the panic, or ctx's cause.
func RunAll(ctx context.Context, w io.Writer, exps []Experiment, o Options, workers int) ([]Timing, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	completed := metrics.Default().Counter("experiments_completed")
	// Every job sends exactly one result, so each buffered slot is filled
	// once and the streamer below never waits on a job that will not run.
	ready := make([]chan blockResult, len(exps))
	for i := range ready {
		ready[i] = make(chan blockResult, 1)
	}
	fanned := make(chan struct{})
	go func() {
		defer close(fanned)
		parallel.ForEachN(workers, len(exps), func(i int) {
			r := runBlock(ctx, exps[i], o)
			if r.err != nil {
				cancel(r.err)
			} else {
				completed.Inc()
			}
			ready[i] <- r
		})
	}()
	// Return only once every job has finished or been skipped.
	defer func() { <-fanned }()

	timings := make([]Timing, 0, len(exps))
	for i, e := range exps {
		r := <-ready[i]
		if r.err != nil {
			return timings, r.err
		}
		if _, err := io.WriteString(w, r.block); err != nil {
			err = fmt.Errorf("experiments: writing %s: %w", e.ID, err)
			cancel(err)
			return timings, err
		}
		timings = append(timings, Timing{ID: e.ID, Wall: r.wall})
	}
	return timings, nil
}

// blockResult is one experiment's rendered block, or why it has none.
type blockResult struct {
	block string
	wall  time.Duration
	err   error
}

// runBlock renders one experiment into its own buffer unless ctx is already
// done, converting a panic into an error.
func runBlock(ctx context.Context, e Experiment, o Options) (r blockResult) {
	if ctx.Err() != nil {
		return blockResult{err: context.Cause(ctx)}
	}
	defer func() {
		if v := recover(); v != nil {
			r = blockResult{err: fmt.Errorf("experiments: %s panicked: %v\n%s", e.ID, v, debug.Stack())}
		}
	}()
	var b strings.Builder
	b.WriteString("\n──── " + e.Title + " ────\n")
	r.wall = metrics.Default().Timer("experiment_wall", "id", e.ID).Time(func() { e.Run(&b, o) })
	r.block = b.String()
	return r
}

func e1(w io.Writer, o Options) {
	rng := xrand.New(o.Seed, 1)
	g := games.NewCHSH()
	c := g.ClassicalValue()
	q := g.QuantumValue(rng)
	bell := games.NewBellSampler(games.OptimalCHSHAngles(), 1.0, rng)
	fmt.Fprintf(w, "classical %.6f (paper 0.75) | quantum SDP %.6f | Born rule %.6f (paper cos²(π/8)=%.6f)\n",
		c.Value, q.Value, bell.ExactValue(g), math.Pow(math.Cos(math.Pi/8), 2))

	var p stats.Proportion
	s := q.QuantumSampler(1.0)
	rounds := o.n(100000)
	for i := 0; i < rounds; i++ {
		x, y := g.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		p.Add(g.Wins(x, y, a, b))
	}
	lo, hi := p.Wilson95()
	fmt.Fprintf(w, "sampled quantum win rate (n=%d): %.4f [%.4f, %.4f]\n", rounds, p.Rate(), lo, hi)
}

func e2(w io.Writer, o Options) {
	rng := xrand.New(o.Seed, 2)
	trials := o.n(150)
	fmt.Fprintln(w, "p_exclusive  P(advantage)")
	for _, p := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		rate := games.AdvantageProbability(5, p, trials, rng)
		fmt.Fprintf(w, "%.1f          %.3f\n", p, rate)
	}
}

func e3(w io.Writer, o Options) {
	base := loadbalance.Config{
		NumBalancers: 100,
		Warmup:       o.n(2000),
		Slots:        o.n(6000),
		Discipline:   loadbalance.BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         o.Seed,
	}
	loads := []float64{0.7, 0.85, 0.95, 1.0, 1.05, 1.1, 1.2, 1.3}
	cls := loadbalance.SweepLoad(base, func() loadbalance.Strategy { return loadbalance.RandomStrategy{} }, loads)
	qnt := loadbalance.SweepLoad(base, func() loadbalance.Strategy {
		return loadbalance.NewQuantumPairedStrategy(1.0, xrand.New(o.Seed, 3))
	}, loads)
	fmt.Fprintln(w, "load   classical-random   quantum-chsh")
	for i, l := range loads {
		fmt.Fprintf(w, "%.2f   %12.2f     %12.2f\n", l, cls.Y[i], qnt.Y[i])
	}
	fmt.Fprintf(w, "knee@5: classical %.3f, quantum %.3f (theory: 1.0 vs ≤4/3)\n",
		cls.KneeX(5), qnt.KneeX(5))
}

func e4(w io.Writer, o Options) {
	cfg := core.DefaultTimingConfig()
	cfg.Rounds = o.n(5000)
	cfg.Seed = o.Seed
	fmt.Fprint(w, core.ParetoSummary(core.RunTiming(cfg)))
}

func e5(w io.Writer, o Options) {
	cfg := ecmp.Config{NumSwitches: 6, NumPaths: 2, ActiveK: 2, Rounds: o.n(50000), Seed: o.Seed}
	for _, s := range []ecmp.PathStrategy{
		ecmp.IndependentRandom{}, ecmp.SharedPermutation{},
		ecmp.PairwiseAntiCorrelated{Visibility: 1},
	} {
		r := ecmp.Run(cfg, s)
		fmt.Fprintf(w, "%-26s E[collisions]=%.4f\n", r.Strategy, r.Collisions.Mean())
	}
	fmt.Fprintf(w, "exact classical optimum %.4f | quantum search best %.4f (bound %.4f)\n",
		ecmp.ExactBestClassical(6, 2, 2),
		ecmp.QuantumSearchBestCollisions(6, 2, o.n(100), xrand.New(o.Seed, 5)),
		ecmp.PigeonholeLowerBound(6, 2, 2))
	rep := ecmp.StandardReductionDemo()
	fmt.Fprintf(w, "reduction demo: marginal shift %.1e, mixture error %.1e (both ≈ 0)\n",
		rep.MaxMarginalShift, rep.MixtureError)
}

func e6(w io.Writer, o Options) {
	base := loadbalance.Config{
		NumBalancers: 100, NumServers: 91,
		Warmup: o.n(2000), Slots: o.n(5000),
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       o.Seed,
	}
	vis := []float64{1.0, 0.9, 0.8, 1 / math.Sqrt2}
	var runs batch
	quantum := make([]*loadbalance.Result, len(vis))
	for i, v := range vis {
		quantum[i] = runs.run(base, loadbalance.NewQuantumPairedStrategy(v, xrand.New(o.Seed, 6)))
	}
	random := runs.run(base, loadbalance.RandomStrategy{})
	runs.wait()
	fmt.Fprintln(w, "visibility  mean queue  colocation rate")
	for i, v := range vis {
		r := quantum[i]
		fmt.Fprintf(w, "%.3f       %8.2f    %.4f\n", v, r.QueueLen.Mean(), r.Colocation.Rate())
	}
	fmt.Fprintf(w, "random      %8.2f    —\n", random.QueueLen.Mean())
}

func e7(w io.Writer, o Options) {
	base := core.DefaultTimingConfig()
	base.Rounds = o.n(4000)
	base.Seed = o.Seed
	fmt.Fprintln(w, "demand/supply  quantum-fraction  win-rate")
	for _, mult := range []float64{0.5, 1, 2, 4} {
		cfg := base
		cfg.RequestRate = base.Source.PairRate * mult
		for _, r := range core.RunTiming(cfg) {
			if r.Architecture == "quantum-pre-shared" {
				fmt.Fprintf(w, "%.1f            %.3f             %.4f\n", mult, r.QuantumFraction, r.WinRate.Rate())
			}
		}
	}
}

func e8(w io.Writer, o Options) {
	rng := xrand.New(o.Seed, 8)
	g := games.MerminGHZ()
	s := games.NewGHZSampler(3, rng)
	fmt.Fprintf(w, "classical %.4f (known 0.75) | GHZ strategy %.4f (known 1.0) | sampled %.4f\n",
		g.ClassicalValue(), s.ExactValue(g), g.EmpiricalValue(s, o.n(2000), rng))
}

func e9(w io.Writer, o Options) {
	cfg := loadbalance.Config{
		NumBalancers: 100, NumServers: 95,
		Warmup: o.n(1000), Slots: o.n(4000),
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       o.Seed,
	}
	demand := float64(cfg.NumBalancers/2) * 1000 // pair-rounds/s at 1ms slots
	mults := []float64{2, 1, 0.5, 0.25, 0}
	var runs batch
	strats := make([]*loadbalance.SupplyLimitedStrategy, len(mults))
	results := make([]*loadbalance.Result, len(mults))
	for i, mult := range mults {
		var supplier entangle.Supplier = entangle.EmptySupplier{}
		if mult != 0 {
			supplier = loadbalance.NewRatedSupplier(demand*mult, 1.0, 64)
		}
		strats[i] = loadbalance.NewSupplyLimitedStrategy(supplier, time.Millisecond, xrand.New(o.Seed, 9))
		results[i] = runs.run(cfg, strats[i])
	}
	runs.wait()
	fmt.Fprintln(w, "supply/demand  quantum-fraction  colocation  mean queue")
	for i, mult := range mults {
		sl := strats[i]
		fmt.Fprintf(w, "%.2f           %.3f             %.4f      %.2f\n",
			mult, sl.QuantumFraction(), sl.ColocationStats().Rate(), results[i].QueueLen.Mean())
	}
}

func e10(w io.Writer, o Options) {
	// One exclusive class plus two caching subtypes that must not be mixed —
	// the paper's caveat case where dedicated-server hybrids fail. (The
	// uniform E,E,C,C structure has NO quantum gap — computing the gap
	// before provisioning pairs is part of the workflow.)
	kinds := []games.ClassKind{games.KindExclusive, games.KindCaching, games.KindCaching}
	weights := []float64{1, 1, 1}
	game := games.MultiClassColocationGame(kinds, weights)
	rng := xrand.New(o.Seed, 10)
	c := game.ClassicalValue()
	q := game.QuantumValue(rng)
	fmt.Fprintf(w, "game values: classical %.4f, quantum %.4f (gap %.4f)\n", c.Value, q.Value, q.Value-c.Value)

	cfg := loadbalance.Config{
		NumBalancers: 100, NumServers: 91,
		Warmup: o.n(1000), Slots: o.n(4000),
		Discipline: loadbalance.BatchSameClassC,
		Workload: workload.MultiClass{Weights: weights,
			ClassTypes: []workload.TaskType{workload.TypeE, workload.TypeC, workload.TypeC}},
		Seed: o.Seed,
	}
	qs := loadbalance.NewGraphPairedStrategy(game, 1.0, rng)
	cs := loadbalance.NewGraphClassicalStrategy(game)
	var runs batch
	rq := runs.run(cfg, qs)
	rc := runs.run(cfg, cs)
	rr := runs.run(cfg, loadbalance.RandomStrategy{})
	runs.wait()
	fmt.Fprintf(w, "mean queue: random %.2f | graph-classical %.2f | graph-quantum %.2f\n",
		rr.QueueLen.Mean(), rc.QueueLen.Mean(), rq.QueueLen.Mean())
	fmt.Fprintf(w, "preference satisfaction: classical %.4f vs quantum %.4f\n",
		cs.ColocationStats().Rate(), qs.ColocationStats().Rate())
}

func e11(w io.Writer, o Options) {
	_, veff := entangle.SwapWernerPairs(0.95, 0.9)
	fmt.Fprintf(w, "swap law check: Werner(0.95)×Werner(0.90) → effective V %.5f (analytic 0.85500)\n", veff)
	src := entangle.DefaultSource()
	cross := entangle.CrossoverSegments(src, 300_000, 0.5, 16)
	fmt.Fprintf(w, "crossover at 300 km (0.2 dB/km, BSM 0.5): first winning chain has %d segments\n", cross)
	chain := entangle.RepeaterChain{Segments: 8, Source: src, BSMSuccess: 0.5}
	fmt.Fprintf(w, "8-segment chain end-to-end visibility: %.4f (critical for CHSH: %.4f)\n",
		chain.EndToEndVisibility(), 1/math.Sqrt2)
}

func e12(w io.Writer, o Options) {
	rng := xrand.New(o.Seed, 12)
	g := games.NewCHSH()
	q := g.QuantumValue(rng)
	rounds := o.n(10000)
	for _, dev := range []struct {
		name string
		s    games.JointSampler
	}{
		{"entangled(V=0.95)", q.QuantumSampler(0.95)},
		{"classical-impostor", g.BestClassicalSampler()},
		{"PR-box(nonphysical)", &games.PRBoxSampler{Game: g}},
	} {
		cert := games.CertifyCHSH(dev.s, rounds, rng)
		fmt.Fprintf(w, "%-22s S=%.4f ±%.4f  violates-classical=%v  within-tsirelson=%v\n",
			dev.name, cert.S, cert.SE, cert.ViolatesClassicalBound(3), cert.WithinTsirelson(3))
	}
	fmt.Fprintln(w, "hierarchy: classical ≤ 2 < quantum ≤ 2√2 < no-signaling ≤ 4 — all three tiers distinguished")
}

func e13(w io.Writer, o Options) {
	cfg := cachesim.Config{
		NumDispatchers: 24, NumServers: 42,
		NumTextures: 3, TextureWeights: []float64{1, 1, 1},
		CacheSlots: 2, HitCost: 1, MissCost: 3,
		Warmup: o.n(500), Ticks: o.n(6000),
		Seed: o.Seed,
	}
	kinds := []games.ClassKind{games.KindCaching, games.KindCaching, games.KindCaching}
	game := games.MultiClassColocationGame(kinds, cfg.TextureWeights)
	rng := xrand.New(o.Seed, 13)

	rr := cachesim.Run(cfg, loadbalance.RandomStrategy{})
	gc := loadbalance.NewGraphClassicalStrategy(game)
	rc := cachesim.Run(cfg, gc)
	gq := loadbalance.NewGraphPairedStrategy(game, 1.0, rng)
	rq := cachesim.Run(cfg, gq)

	fmt.Fprintln(w, "strategy          hit-rate  sojourn(ticks)")
	fmt.Fprintf(w, "random            %.4f    %.2f\n", rr.HitRate.Rate(), rr.Sojourn.Mean())
	fmt.Fprintf(w, "graph-classical   %.4f    %.2f\n", rc.HitRate.Rate(), rc.Sojourn.Mean())
	fmt.Fprintf(w, "graph-quantum     %.4f    %.2f\n", rq.HitRate.Rate(), rq.Sojourn.Mean())
	fmt.Fprintln(w, "texture-affinity routing warms LRU caches; entanglement satisfies more")
	fmt.Fprintln(w, "same-texture colocation preferences than any classical pairing can")
}

func e14(w io.Writer, o Options) {
	rng := xrand.New(o.Seed, 14)
	fmt.Fprintln(w, "n   classical P(exactly one)  quantum P  quantum fairness(TV)")
	for _, n := range []int{2, 3, 5, 8} {
		st := games.RunLeaderElection(n, o.n(5000), rng)
		fmt.Fprintf(w, "%d   %.4f (formula %.4f)   %.4f     %.4f\n",
			n, st.ClassicalSuccess, games.ClassicalLeaderElectionValue(n),
			st.QuantumSuccess, st.QuantumFairness)
	}
	fmt.Fprintln(w, "anonymous symmetric parties, zero communication: private coins cap at")
	fmt.Fprintln(w, "(1−1/n)^(n−1) → 1/e, while a shared W state elects exactly one leader,")
	fmt.Fprintln(w, "uniformly, every round — another coordination primitive beyond XOR games")
}

func e15(w io.Writer, o Options) {
	rng := xrand.New(o.Seed, 15)
	g := games.NewCHSH()
	fmt.Fprintln(w, "channel              fixed-angle value  re-optimized value  gain")
	for _, p := range []float64{0.3, 0.6, 0.9} {
		rho := qsim.DensityFromPure(qsim.Bell()).
			ApplyChannel(0, qsim.Dephasing(p)).
			ApplyChannel(1, qsim.Dephasing(p))
		fixed, adapted := games.AdaptiveGain(g, rho, games.OptimalCHSHAngles(), rng)
		fmt.Fprintf(w, "dephasing(p=%.1f)     %.4f             %.4f              %+.4f\n",
			p, fixed, adapted, adapted-fixed)
	}
	fixed, adapted := games.AdaptiveGain(g, qsim.Werner(0.85), games.OptimalCHSHAngles(), rng)
	fmt.Fprintf(w, "werner(V=0.85)       %.4f             %.4f              %+.4f  (isotropic: nothing to adapt to)\n",
		fixed, adapted, adapted-fixed)
	fmt.Fprintln(w, "dephasing kills X-correlations but spares Z: re-optimizing the bases for")
	fmt.Fprintln(w, "the certified channel recovers value the paper's fixed angles leave behind")
}

func e16(w io.Writer, o Options) {
	rounds := o.n(15000)
	fmt.Fprintln(w, "channel                 key-bits  QBER    S        verdict")
	for _, tc := range []struct {
		name string
		cfg  qkd.Config
	}{
		{"clean (V=1.00)", qkd.Config{Rounds: rounds, Visibility: 1.0, AbortS: 2, Seed: o.Seed}},
		{"noisy (V=0.90)", qkd.Config{Rounds: rounds, Visibility: 0.9, AbortS: 2, Seed: o.Seed}},
		{"intercept-resend Eve", qkd.Config{Rounds: rounds, Visibility: 1.0, Eve: qkd.StandardEve(), AbortS: 2, Seed: o.Seed}},
	} {
		res := qkd.Run(tc.cfg)
		verdict := "key accepted"
		if res.Aborted {
			verdict = "ABORTED"
		}
		fmt.Fprintf(w, "%-22s  %-8d  %.4f  %.4f   %s\n",
			tc.name, len(res.Key), res.QBER.Rate(), res.S, verdict)
	}
	fmt.Fprintln(w, "the CHSH test that powers the load balancer doubles as the security test:")
	fmt.Fprintln(w, "any eavesdropper breaks entanglement, S collapses to ≤ 2, the key is discarded")
}

func e17(w io.Writer, o Options) {
	// Part 1: a full chaos run through the engine-driven supply chain — the
	// fault injector replays one phase per fault kind against a resilient
	// session; the paired classical floor must hold in every phase.
	res, err := core.RunChaos(core.ChaosConfig{
		Game:    games.NewColocationCHSH(),
		Source:  entangle.DefaultSource(),
		QNIC:    entangle.DefaultQNIC(),
		PoolCap: 64,
		Chain:   &entangle.RepeaterChain{Segments: 4, Source: entangle.DefaultSource(), BSMSuccess: 0.5},
		Phases:  core.DefaultChaosPhases(o.n(1500)),
		Seed:    o.Seed,
	})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "phase              fault              quantum  visibility  win-rate  classical  floor")
	for _, p := range res.Phases {
		floor := "held"
		if p.Wins < p.ClassicalWins {
			floor = "BROKEN"
		}
		vis := "-"
		if p.QuantumRounds > 0 {
			vis = fmt.Sprintf("%.4f", p.MeanVisibility)
		}
		fmt.Fprintf(w, "%-18s %-18s %.3f    %-10s  %.4f    %.4f     %s\n",
			p.Name, p.Fault, p.QuantumFraction(), vis, p.WinRate(), p.ClassicalRate(), floor)
	}
	st := res.Session
	fmt.Fprintf(w, "session: %d rounds, levels quantum/reopt/classical/random = %d/%d/%d/%d, retries %d\n",
		st.Rounds, st.LevelRounds[0], st.LevelRounds[1], st.LevelRounds[2], st.LevelRounds[3], st.Retries)
	fmt.Fprintf(w, "supply:  generated %d, fiber-lost %d, delivered %d, suppressed %d; pool expired %d, flushed %d\n",
		res.Service.Generated, res.Service.LostFiber, res.Service.Delivered,
		res.Service.Suppressed, res.Pool.Expired, res.Pool.Flushed)

	// Part 2: the same fault timeline pressed onto the queueing simulator —
	// an engine-less faults.Supplier thins a rated pair supply under a
	// scripted outage while the load balancer runs at load 1.05; the mean
	// queue tracks the fault phases but service never stops (the classical
	// fallback keeps answering).
	warmup, slots := o.n(1000), o.n(4000)
	third := time.Duration(slots/3) * time.Millisecond
	start := time.Duration(warmup) * time.Millisecond
	sched := faults.Schedule{Windows: []faults.Window{
		{Kind: faults.KindSourceOutage, Start: start + third, End: start + 2*third},
	}}
	demand := float64(100/2) * 1000
	sl := loadbalance.NewSupplyLimitedStrategy(
		faults.NewSupplier(loadbalance.NewRatedSupplier(demand*2, 1.0, 64), sched),
		time.Millisecond, xrand.New(o.Seed, 17))
	rec := &loadbalance.SlotSeries{}
	cfg := loadbalance.Config{
		NumBalancers: 100, NumServers: 91, // load ≈ 1.1: the E6 regime where strategy quality moves the queue
		Warmup: warmup, Slots: slots,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       o.Seed,
		Recorder:   rec,
	}
	loadbalance.Run(cfg, sl)
	// Per-phase statistics from the recorder: the queue mean directly, the
	// colocation rate by differencing the cumulative tally at the phase
	// boundaries (pair-rounds per slot are constant, so the counts cancel).
	phase := func(lo, hi time.Duration) (coloc, queue float64) {
		var cumLo, cumHi, nLo, nHi float64
		var qSum, qN float64
		for i, s := range rec.Slots {
			if rec.Measured[i] != 1 {
				continue
			}
			at := time.Duration(s) * time.Millisecond
			if at < lo {
				cumLo, nLo = rec.ColocationRate[i], nLo+1
			}
			if at < hi {
				cumHi, nHi = rec.ColocationRate[i], nHi+1
			} else {
				break
			}
			if at >= lo {
				qSum += rec.QueueTotal[i] / float64(cfg.NumServers)
				qN++
			}
		}
		if nHi > nLo {
			coloc = (cumHi*nHi - cumLo*nLo) / (nHi - nLo)
		}
		if qN > 0 {
			queue = qSum / qN
		}
		return coloc, queue
	}
	end := time.Duration(warmup+slots) * time.Millisecond
	fmt.Fprintln(w, "queueing under the same outage (load ≈1.1, supply 2×):")
	fmt.Fprintln(w, "  phase    colocation  mean queue")
	for _, ph := range []struct {
		name   string
		lo, hi time.Duration
	}{
		{"before", start, start + third},
		{"outage", start + third, start + 2*third},
		{"after", start + 2*third, end},
	} {
		c, q := phase(ph.lo, ph.hi)
		fmt.Fprintf(w, "  %-7s  %.4f      %.2f\n", ph.name, c, q)
	}
	fmt.Fprintf(w, "  quantum fraction %.3f over the full run\n", sl.QuantumFraction())
	fmt.Fprintln(w, "degradation is graceful: colocation collapses to the classical 0.75 floor")
	fmt.Fprintln(w, "during the outage — never below it — and snaps back when supply returns")
}
