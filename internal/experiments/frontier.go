package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// E20 maps the latency-constrained advantage frontier: for each (decision
// deadline, fiber distance, source visibility) grid point, a pre-shared
// entanglement architecture races the best classical alternative. The
// quantum side must deliver pairs BEFORE requests arrive (fiber propagation
// + heralding = entangle.SourceConfig.DeliveryLatency) and measure within
// the deadline; the classical side either coordinates over a message round
// trip when the deadline affords one (perfect coordination, win rate 1.0)
// or plays the best local strategy (the game's classical value, 0.75).
//
// The frontier is where the quantum architecture's empirical win rate beats
// the best classical one: a low-deadline band that widens with distance —
// a classical RTT stops fitting the budget long before a stored pair does —
// until fiber loss starves the pool and storage decoherence erodes the
// delivered visibility. WriteFrontierCSV commits the full grid as an
// artifact; e20 prints the summary table.

// frontierDeadlines is the decision-deadline sweep.
func frontierDeadlines() []time.Duration {
	return []time.Duration{
		1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
		10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		1000 * time.Microsecond,
	}
}

// frontierDistancesM is the balancer-separation sweep, in meters of fiber.
func frontierDistancesM() []float64 {
	return []float64{1_000, 5_000, 10_000, 25_000, 50_000, 100_000}
}

// frontierVisibilities is the source-visibility sweep, bracketing the CHSH
// critical visibility 1/√2 ≈ 0.707.
func frontierVisibilities() []float64 {
	return []float64{0.98, 0.90, 0.80, 0.75, 0.65}
}

// FrontierRow is one grid point's outcome.
type FrontierRow struct {
	Deadline   time.Duration
	DistanceM  float64
	Visibility float64

	// DeliveryLatency is generation→usable for one pair (propagation +
	// heralding); ClassicalRTT is the classical coordination round trip over
	// the same fiber distance.
	DeliveryLatency time.Duration
	ClassicalRTT    time.Duration
	// DeliveredPairRate is the usable-pair supply after fiber loss.
	DeliveredPairRate float64

	// WinQuantum is the quantum architecture's empirical win rate (quantum
	// when a pair is available within the deadline, local classical
	// fallback otherwise); QuantumFraction is the share of rounds that
	// consumed a pair.
	WinQuantum      float64
	QuantumFraction float64
	// WinClassical is the best classical architecture's win rate and
	// ClassicalArch which architecture achieved it ("coordinated" when an
	// RTT fits the deadline, "local" otherwise).
	WinClassical  float64
	ClassicalArch string

	Advantage  float64
	Advantaged bool
}

// advantageThreshold separates noise from a real frontier crossing: ~3σ of
// the binomial noise on WinQuantum at the default round count, well under
// the ≥0.04 edge a healthy supply delivers at usable visibilities.
const advantageThreshold = 0.025

// frontierRows simulates the full grid. Each point runs on its own derived
// RNG stream indexed by grid position, so the rows are byte-identical at
// any worker count.
func frontierRows(o Options) []FrontierRow {
	deadlines, dists, viss := frontierDeadlines(), frontierDistancesM(), frontierVisibilities()
	game := games.NewColocationCHSH()
	// The optimal measurement geometry is deterministic for CHSH; solve it
	// once and share the read-only result across points.
	q := game.QuantumValue(xrand.New(o.Seed, 20))
	// 2500 rounds puts the binomial noise on WinQuantum near 0.009, about a
	// third of the 0.025 advantage threshold — sub-critical visibilities
	// must not flicker into the advantaged set.
	rounds := o.n(2500)
	baseSeed := xrand.New(o.Seed, 2020).Uint64()
	n := len(deadlines) * len(dists) * len(viss)
	return parallel.MapN(o.Workers, n, func(i int) FrontierRow {
		d := deadlines[i/(len(dists)*len(viss))]
		dist := dists[(i/len(viss))%len(dists)]
		vis := viss[i%len(viss)]
		return simulateFrontierPoint(d, dist, vis, game, q, rounds, xrand.Derive(baseSeed, uint64(i)))
	})
}

// simulateFrontierPoint runs one grid point: a pool fed by an SPDC source
// over dist meters of fiber serves Poisson request arrivals; each round
// waits (bounded by the deadline budget) for a stored pair, measures it at
// its decayed visibility, or falls back to the best local classical play.
func simulateFrontierPoint(deadline time.Duration, dist, vis float64,
	game *games.XORGame, q games.QuantumResult, rounds int, rng *xrand.RNG) FrontierRow {

	src := entangle.DefaultSource()
	src.FiberLengthM = dist
	src.BaseVisibility = vis
	src.HeraldLatency = 2 * time.Microsecond
	qnic := entangle.DefaultQNIC()

	row := FrontierRow{
		Deadline: deadline, DistanceM: dist, Visibility: vis,
		DeliveryLatency:   src.DeliveryLatency(),
		ClassicalRTT:      2 * src.PropagationDelay(),
		DeliveredPairRate: src.DeliveredPairRate(),
	}

	var engine netsim.Engine
	pool := entangle.NewPool(qnic, 64)
	svc := entangle.StartService(&engine, src, pool, rng.Split(1))
	arrivals := &workload.PoissonArrivals{Rate: 2e4}
	arrRng := rng.Split(2)
	playRng := rng.Split(3)
	classical := game.BestClassicalSampler()

	// Let the pool reach steady state before the first request: one storage
	// limit plus the delivery latency covers both fill and expiry dynamics.
	warmup := qnic.StorageLimit + src.DeliveryLatency()
	engine.RunUntil(warmup)

	budget := deadline - qnic.MeasureLatency
	wins, quantum := 0, 0
	for i := 0; i < rounds; i++ {
		at := warmup + arrivals.Next(arrRng)
		engine.RunUntil(at)
		x, y := game.SampleInput(playRng)
		var a, b int
		played := false
		if budget >= 0 {
			var v float64
			if v, played = awaitPair(&engine, svc, pool, at, budget); played {
				a, b = q.QuantumSampler(v).Sample(x, y, playRng)
			}
		}
		if played {
			quantum++
		} else {
			a, b = classical.Sample(x, y, playRng)
		}
		if game.Wins(x, y, a, b) {
			wins++
		}
	}
	svc.Stop()

	row.WinQuantum = float64(wins) / float64(rounds)
	row.QuantumFraction = float64(quantum) / float64(rounds)
	row.WinClassical, row.ClassicalArch = 0.75, "local"
	if row.ClassicalRTT <= deadline {
		row.WinClassical, row.ClassicalArch = 1.0, "coordinated"
	}
	row.Advantage = row.WinQuantum - row.WinClassical
	row.Advantaged = row.Advantage > advantageThreshold
	return row
}

// waitStep is the pool-polling period of a waiting request.
const waitStep = 5 * time.Microsecond

// awaitPair is the bounded wait of a request that arrived at time at: the
// pool is polled every waitStep while the budget still fits the measurement,
// and a pair is consumed at the first poll at or after it lands. An empty poll
// leaves the pool empty until the next arrival, so the engine runs straight
// to the first poll at or after NextArrival (which lies after the clock). A
// wait that finds nothing ends on the last poll: the next request starts there.
func awaitPair(engine *netsim.Engine, svc *entangle.Service, pool *entangle.Pool, at, budget time.Duration) (float64, bool) {
	last := at + budget/waitStep*waitStep
	for {
		if v, ok := pool.TryConsume(engine.Now()); ok {
			return v, true
		}
		next, ok := svc.NextArrival()
		if !ok || next > last {
			engine.RunUntil(last)
			return 0, false
		}
		engine.RunUntil(at + (next-at+waitStep-1)/waitStep*waitStep)
	}
}

// WriteFrontierCSV emits the full advantage-frontier grid as the committed
// CSV artifact. Every value is a pure function of (o.Seed, o.Scale), so the
// bytes are identical across runs, machines and worker counts.
func WriteFrontierCSV(w io.Writer, o Options) error {
	if _, err := fmt.Fprintln(w, "deadline_ns,distance_m,visibility,delivery_latency_ns,classical_rtt_ns,pair_rate,win_quantum,quantum_fraction,win_best_classical,best_classical_arch,advantage,advantaged"); err != nil {
		return err
	}
	for _, r := range frontierRows(o) {
		if _, err := fmt.Fprintf(w, "%d,%.0f,%.2f,%d,%d,%.6g,%.6f,%.4f,%.2f,%s,%.6f,%t\n",
			r.Deadline.Nanoseconds(), r.DistanceM, r.Visibility,
			r.DeliveryLatency.Nanoseconds(), r.ClassicalRTT.Nanoseconds(),
			r.DeliveredPairRate, r.WinQuantum, r.QuantumFraction,
			r.WinClassical, r.ClassicalArch, r.Advantage, r.Advantaged); err != nil {
			return err
		}
	}
	return nil
}

// e20 prints the frontier summary: for each distance × visibility, how many
// of the swept deadlines land in the quantum-advantaged band and the band's
// extent. The full grid behind it is the WriteFrontierCSV artifact.
func e20(w io.Writer, o Options) {
	rows := frontierRows(o)
	deadlines, dists, viss := frontierDeadlines(), frontierDistancesM(), frontierVisibilities()
	// Index rows by grid position (they arrive in deadline-major order).
	at := func(di, gi, vi int) FrontierRow {
		return rows[di*len(dists)*len(viss)+gi*len(viss)+vi]
	}
	fmt.Fprintf(w, "advantaged deadlines (of %d swept) and band extent, by distance × visibility\n", len(deadlines))
	header := "distance "
	for _, v := range viss {
		header += fmt.Sprintf("  v=%.2f         ", v)
	}
	fmt.Fprintln(w, header)
	total := 0
	for gi, dist := range dists {
		line := fmt.Sprintf("%5.0fkm ", dist/1000)
		for vi := range viss {
			count := 0
			var lo, hi time.Duration
			for di := range deadlines {
				if at(di, gi, vi).Advantaged {
					if count == 0 {
						lo = deadlines[di]
					}
					hi = deadlines[di]
					count++
				}
			}
			total += count
			if count == 0 {
				line += fmt.Sprintf("  %-15s", "0  —")
			} else {
				line += fmt.Sprintf("  %-15s", fmt.Sprintf("%d  [%v,%v]", count, lo, hi))
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "advantaged points: %d / %d\n", total, len(rows))
	fmt.Fprintln(w, "(full grid: the FRONTIER_advantage.csv artifact, `make frontier`)")
}
