// Package loadbalance implements the paper's §4.1 simulation (Figure 4):
// N load balancers forward type-C / type-E tasks to M servers each time
// slot; servers batch-process pairs of type-C tasks but serve type-E tasks
// one at a time; the measured quantity is average queue length (and queueing
// delay) as a function of the load ratio N/M.
//
// Strategies range from the paper's two protagonists — classical uniform
// random and quantum CHSH-paired — to the context baselines: round-robin,
// power-of-two-choices, the best classical paired strategy (isolating how
// much of the quantum win comes from pairing alone), a dedicated-server
// hybrid, and a full-communication oracle upper bound.
package loadbalance

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Discipline selects the servers' service rule per time slot.
type Discipline int

const (
	// BatchCFirst is the paper's rule: if any type-C tasks are queued,
	// serve up to two of them simultaneously; otherwise serve one type-E.
	BatchCFirst Discipline = iota
	// SingleCFirst serves one task per slot with type-C priority — no
	// batching, so colocation should yield no benefit (ablation).
	SingleCFirst
	// FIFOBatch serves strictly in arrival order, but when the head-of-line
	// task is type-C the next queued type-C (if any) rides along in the
	// same slot.
	FIFOBatch
	// EFirst serves one type-E if any are queued, else up to two type-C —
	// the reversed priority ablation (footnote 2: the advantage is robust
	// to other server execution strategies).
	EFirst
	// BatchSameClassC batches two type-C tasks only when they belong to the
	// SAME class (shared texture/cache) — the multi-class regime where
	// different caching classes pollute each other.
	BatchSameClassC
)

// String names the discipline for reports.
func (d Discipline) String() string {
	switch d {
	case BatchCFirst:
		return "batch-C-first"
	case SingleCFirst:
		return "single-C-first"
	case FIFOBatch:
		return "fifo-batch"
	case EFirst:
		return "E-first"
	case BatchSameClassC:
		return "batch-same-class-C"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// View is the (possibly stale) cluster state a strategy may consult.
// Queue lengths are as of the end of the previous slot — information a
// balancer could realistically have from periodic polling, unlike the
// instantaneous global state only the oracle sees.
type View interface {
	NumServers() int
	QueueLen(server int) int
}

// Strategy assigns each balancer's task to a server for one slot.
type Strategy interface {
	Name() string
	// Assign writes one server index per task into dst — dst[i] for
	// tasks[i], task i belonging to balancer i — and returns the filled
	// slice. The caller guarantees len(dst) == len(tasks) and reuses dst
	// across slots, so implementations must neither retain dst nor tasks
	// past the call, nor read dst's previous contents.
	Assign(dst []int, tasks []workload.Task, view View, rng *xrand.RNG) []int
}

// ColocationTracker is implemented by paired strategies that can report how
// often the colocation preference was satisfied.
type ColocationTracker interface {
	ColocationStats() *stats.Proportion
}

// Config parametrizes one simulation run.
type Config struct {
	NumBalancers int
	NumServers   int
	// Warmup slots are simulated but not measured; Slots are measured.
	Warmup, Slots int
	Discipline    Discipline
	Workload      workload.Generator
	Seed          uint64
	// Recorder, when non-nil, observes every simulated slot (see Recorder).
	// It is not part of the simulated system: a nil recorder skips all
	// sample assembly, and a non-nil one cannot change results. Sweeps copy
	// the Config across parallel points, so set a Recorder only on single
	// runs (or supply one safe for concurrent use).
	Recorder Recorder
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumBalancers <= 0 || c.NumServers <= 0 {
		return fmt.Errorf("loadbalance: need positive balancer and server counts")
	}
	if c.Slots <= 0 {
		return fmt.Errorf("loadbalance: need positive measured slots (Slots = %d)", c.Slots)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("loadbalance: warmup slots must be non-negative (Warmup = %d)", c.Warmup)
	}
	if int64(c.Warmup)+int64(c.Slots) > math.MaxInt32 {
		// Arrival slots are packed into int32 queue records.
		return fmt.Errorf("loadbalance: total slots %d exceed the int32 slot index", c.Warmup+c.Slots)
	}
	if c.Discipline < BatchCFirst || c.Discipline > BatchSameClassC {
		return fmt.Errorf("loadbalance: unknown discipline %d", int(c.Discipline))
	}
	if c.Workload == nil {
		return fmt.Errorf("loadbalance: nil workload")
	}
	if v, ok := c.Workload.(workload.Validator); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result aggregates a run's measurements.
type Result struct {
	Strategy    string
	Load        float64       // N/M
	QueueLen    stats.Welford // mean queue length per server per slot
	Delay       stats.Welford // slots between arrival and service
	Arrived     int64
	Served      int64
	QueuedAtEnd int64
	// Colocation is the paired strategies' preference-satisfaction rate
	// (zero-valued for strategies that do not track it).
	Colocation stats.Proportion
	// QueueLenBM carries the autocorrelation-aware (batch means) estimate
	// of the mean queue length; its CI is the honest one to report near
	// saturation, where slot-to-slot queue samples are strongly correlated.
	QueueLenBM *stats.BatchMeans
}

// batchMeansSlots is the batch size for the autocorrelation-aware queue
// estimate: 200 slots comfortably exceeds the queue correlation time at the
// loads the experiments sweep. Sharded runs use the same size so per-cell
// estimators merge exactly.
const batchMeansSlots = 200

// Run accounting: aggregate task flow across every simulation this process
// executes, folded in once per run (no per-slot atomics). "queued_at_end"
// is this infinite-queue model's drop column: work admitted but never
// served within the simulated horizon.
var (
	lbRuns        = metrics.Default().Counter("loadbalance_runs_total")
	lbSlots       = metrics.Default().Counter("loadbalance_slots_total")
	lbArrived     = metrics.Default().Counter("loadbalance_tasks_arrived_total")
	lbServed      = metrics.Default().Counter("loadbalance_tasks_served_total")
	lbQueuedAtEnd = metrics.Default().Counter("loadbalance_tasks_queued_at_end_total")
)

// clusterView implements View by aliasing the World's live qlen column.
// Strategies only read it during Assign, which runs strictly between one
// slot's view refresh point and the next slot's pushes, so the values they
// observe are exactly the end-of-previous-slot lengths the stale-view model
// calls for — without copying a column per slot.
type clusterView struct{ lens []int32 }

func (v *clusterView) NumServers() int         { return len(v.lens) }
func (v *clusterView) QueueLen(server int) int { return int(v.lens[server]) }

// Run executes the simulation and returns aggregated metrics. The run is
// deterministic in (Config.Seed, strategy). It panics on an invalid config
// or a misbehaving strategy; parallel drivers that must survive a bad sweep
// point use RunE instead.
func Run(cfg Config, strat Strategy) Result {
	res, err := RunE(cfg, strat)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE is Run with errors instead of panics: an invalid configuration or a
// strategy that returns a malformed assignment surfaces as an error the
// caller (e.g. a worker goroutine in a sweep) can report without tearing
// down the whole process.
func RunE(cfg Config, strat Strategy) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Stateful generators (phase machines, slot counters) are cloned per
	// run: sweeps and sharded cells copy one Config — and with it one
	// Generator pointer — across repetitions and worker goroutines, so
	// running the prototype directly would leak phase state between runs
	// and race between cells. Each run gets a pristine private instance;
	// stateless generators (Bernoulli, MultiClass) pass through untouched.
	if c, ok := cfg.Workload.(workload.Cloner); ok {
		cfg.Workload = c.CloneGenerator()
	}
	rng := xrand.New(cfg.Seed, 0x10adba1)
	world := NewWorld(cfg.NumServers)
	view := &clusterView{lens: world.qlen}
	tasks := make([]workload.Task, cfg.NumBalancers)
	// The assignment buffer is allocated once and reused every slot;
	// strategies fill it in place (see Strategy).
	assign := make([]int, cfg.NumBalancers)

	res := Result{
		Strategy:   strat.Name(),
		Load:       float64(cfg.NumBalancers) / float64(cfg.NumServers),
		QueueLenBM: stats.NewBatchMeans(batchMeansSlots),
	}

	tracker, tracksColoc := strat.(ColocationTracker)
	// Queue lengths and delays are whole numbers: their moments accumulate
	// exactly and become res.QueueLen and res.Delay once, at the end.
	var qlenM, delayM stats.IntMoments

	total := cfg.Warmup + cfg.Slots
	for slot := 0; slot < total; slot++ {
		measured := slot >= cfg.Warmup
		// Colocation statistics honor the measured window like every other
		// metric: whatever the strategy accumulated during warmup is
		// discarded at the boundary, so Result.Colocation describes exactly
		// the slots QueueLen and Delay describe (see EXPERIMENTS.md).
		if tracksColoc && cfg.Warmup > 0 && slot == cfg.Warmup {
			*tracker.ColocationStats() = stats.Proportion{}
		}

		// 1. Arrivals.
		for i := range tasks {
			tasks[i] = cfg.Workload.Next(i, rng)
		}

		// 2. Assignment.
		got := strat.Assign(assign, tasks, view, rng)
		if len(got) != len(tasks) {
			return res, fmt.Errorf("loadbalance: strategy %s returned %d assignments for %d tasks",
				strat.Name(), len(got), len(tasks))
		}
		for i, srv := range got {
			if srv < 0 || srv >= cfg.NumServers {
				return res, fmt.Errorf("loadbalance: strategy %s assigned out-of-range server %d",
					strat.Name(), srv)
			}
			world.push(srv, rec{meta: packTask(tasks[i]), arrival: int32(slot)})
		}

		// 3. Service and measurement, one pass over the servers. The slot's
		// delays and queue lengths accumulate in locals (count, Σ, 128-bit
		// Σ², min, max) that fold into delayM and qlenM once per slot. An
		// empty server is not served, but its zero length is sampled. The
		// view needs no refresh: it aliases world.qlen.
		var dN, dSum, qSum, qMax int64
		var dSqHi, dSqLo, qSqHi, qSqLo, c uint64
		dMin, dMax, qMin := int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64)
		for s, l := range world.qlen {
			if l != 0 {
				first, second, n := world.serve(s, cfg.Discipline)
				for done := first; n > 0; done, n = second, n-1 {
					d := int64(slot) - int64(done.arrival)
					dN, dSum = dN+1, dSum+d
					dSqLo, c = bits.Add64(dSqLo, uint64(d*d), 0)
					dSqHi += c
					dMin, dMax = min(dMin, d), max(dMax, d)
				}
				l = world.qlen[s]
			}
			q := int64(l)
			qSum += q
			qSqLo, c = bits.Add64(qSqLo, uint64(q*q), 0)
			qSqHi += c
			qMin, qMax = min(qMin, q), max(qMax, q)
		}
		if measured {
			res.Arrived += int64(len(got))
			res.Served += dN
			delayM.Fold(dN, dSum, dSqHi, dSqLo, dMin, dMax)
			qlenM.Fold(int64(cfg.NumServers), qSum, qSqHi, qSqLo, qMin, qMax)
			res.QueueLenBM.Add(float64(qSum) / float64(cfg.NumServers))
		}
		if cfg.Recorder != nil {
			coloc := math.NaN()
			if tracksColoc {
				coloc = tracker.ColocationStats().Rate()
			}
			cfg.Recorder.RecordSlot(SlotSample{
				Slot:           slot,
				Measured:       measured,
				QueueTotal:     int(qSum),
				QueueMax:       int(qMax),
				Arrived:        len(got),
				Served:         int(dN),
				DelaySum:       float64(dSum),
				ColocationRate: coloc,
			})
		}
	}

	res.QueueLen, res.Delay = qlenM.Welford(), delayM.Welford()
	res.QueuedAtEnd = world.totalQueued()
	if tracksColoc {
		res.Colocation = *tracker.ColocationStats()
	}
	lbRuns.Inc()
	lbSlots.Add(int64(total))
	lbArrived.Add(res.Arrived)
	lbServed.Add(res.Served)
	lbQueuedAtEnd.Add(res.QueuedAtEnd)
	return res, nil
}
