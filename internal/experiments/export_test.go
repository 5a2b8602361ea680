package experiments

import (
	"time"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// pollPair is the bounded wait awaitPair replaced, kept as its oracle: it
// polls the pool at every waitStep instant from at while the wait still
// leaves budget for the measurement, running the engine one step at a time,
// whether or not a pair could have landed since the last poll.
func pollPair(engine *netsim.Engine, pool *entangle.Pool, at, budget time.Duration) (float64, bool) {
	for waited := time.Duration(0); ; waited += waitStep {
		if v, ok := pool.TryConsume(engine.Now()); ok {
			return v, true
		}
		if waited+waitStep > budget {
			return 0, false
		}
		engine.RunUntil(at + waited + waitStep)
	}
}

// simulateFrontierPointPolling is simulateFrontierPoint as it was before the
// wait skipped the polls that cannot see a pair: the same grid point with
// pollPair in awaitPair's place.
func simulateFrontierPointPolling(deadline time.Duration, dist, vis float64,
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
			if v, played = pollPair(&engine, pool, at, budget); played {
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
