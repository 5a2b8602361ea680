package loadbalance

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// StrategyFactory builds a fresh strategy per sweep point (strategies carry
// per-run state such as round-robin counters and colocation statistics).
// Sweeps call the factory serially, in point order, before fanning the runs
// out — a factory may therefore draw from a captured RNG — but each returned
// strategy is driven from a worker goroutine and must not share mutable
// state with its siblings.
type StrategyFactory func() Strategy

// sweepPoints builds one strategy per load (serially, so factory-side RNG
// draws keep their order) and runs the simulations on a pool of `workers`
// goroutines (<= 0 means GOMAXPROCS). Each run derives all randomness from
// base.Seed, so the result slice is identical at any worker count.
func sweepPoints(base Config, factory StrategyFactory, loads []float64, workers int) []Result {
	strats := make([]Strategy, len(loads))
	for i := range strats {
		strats[i] = factory()
	}
	return parallel.MapN(workers, len(loads), func(i int) Result {
		cfg := base
		cfg.NumServers = serversForLoad(base.NumBalancers, loads[i])
		return Run(cfg, strats[i])
	})
}

// SweepBoth regenerates both Figure 4 series — mean queue length and mean
// queueing delay — from a single sweep: one simulation per load point,
// fanned out over `workers` goroutines. Callers needing only the queue length
// use the SweepLoad wrapper; callers exporting both (cmd/qlbsim -series)
// avoid simulating every point twice.
func SweepBoth(base Config, factory StrategyFactory, loads []float64, workers int) (qlen, delay stats.Series) {
	for _, r := range sweepPoints(base, factory, loads, workers) {
		if qlen.Name == "" {
			qlen.Name = r.Strategy
			delay.Name = r.Strategy
		}
		// Report the autocorrelation-aware CI (batch means): queue samples
		// are strongly correlated slot-to-slot near saturation, so the
		// naive per-sample CI would be misleadingly tight.
		ci := r.QueueLenBM.CI95()
		if math.IsInf(ci, 1) {
			ci = r.QueueLen.CI95()
		}
		qlen.Append(r.Load, r.QueueLen.Mean(), ci)
		delay.Append(r.Load, r.Delay.Mean(), r.Delay.CI95())
	}
	return qlen, delay
}

// SweepLoad regenerates a Figure 4 series: it holds NumBalancers fixed and
// varies the server count so the load ratio N/M traverses `loads`, running
// one simulation per point and recording mean queue length with its 95% CI.
func SweepLoad(base Config, factory StrategyFactory, loads []float64, workers int) stats.Series {
	qlen, _ := SweepBoth(base, factory, loads, workers)
	return qlen
}

// serversForLoad returns M so that N/M ≈ load, clamped to at least 2 (the
// paired strategies need two distinct servers to choose between).
func serversForLoad(n int, load float64) int {
	m := int(math.Round(float64(n) / load))
	if m < 2 {
		m = 2
	}
	return m
}

// TheoreticalKnees returns the saturation loads implied by the paper's
// service discipline for the two protagonist strategies, used to sanity-
// check the measured curves:
//
//   - classical random: single type-C tasks usually ride alone in a service
//     slot, so a server needs ~λ/2 slots for C work and λ/2 for E work per
//     slot of arrivals — saturation near λ = 1.
//   - perfect colocation: type-C tasks arrive pre-paired and consume λ/4
//     slots, saturation at λ = 4/3.
//
// The quantum strategy lands between: it pairs C's with probability
// cos²(π/8) instead of 1, so its knee sits between 1 and 4/3, and closer to
// the latter.
func TheoreticalKnees() (classical, perfect float64) { return 1.0, 4.0 / 3.0 }
