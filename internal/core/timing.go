package core

import (
	"fmt"

	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// This file is the Figure 2 experiment: with qubits pre-shared, a server
// decides the instant an input arrives; with classical coordination the
// decision waits for a network round trip. The output is the Pareto
// frontier the paper says quantum correlations expand:
//
//	architecture          decision latency      win rate
//	local classical       ~0                    classical value (0.75)
//	quantum pre-shared    QNIC measure (~1µs)   up to cos²(π/8) (0.854)
//	coordinated classical RTT (ms-scale)        1.0
//
// The quantum point strictly dominates "local classical" and is unreachable
// by any classical scheme at sub-RTT latency.

// TimingConfig parametrizes the experiment.
type TimingConfig struct {
	// DistanceM separates the two servers (fiber meters). Figure 2's story
	// needs this to be large enough that the RTT dwarfs local processing.
	DistanceM float64
	// RequestRate is the Poisson rate (per second) at which coordination
	// rounds arrive.
	RequestRate float64
	// Rounds is how many coordination rounds to simulate.
	Rounds int
	// Source and QNIC model the entanglement substrate.
	Source entangle.SourceConfig
	QNIC   entangle.QNICConfig
	Seed   uint64
}

// DefaultTimingConfig is the Figure 2 setting: servers 100 km apart
// (0.5 ms one-way), 10k requests/s, a default SPDC source.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		DistanceM:   100_000,
		RequestRate: 10_000,
		Rounds:      20_000,
		Source:      entangle.DefaultSource(),
		QNIC:        entangle.DefaultQNIC(),
		Seed:        1,
	}
}

// TimingResult is one architecture's row.
type TimingResult struct {
	Architecture string
	// Latency is the per-decision latency distribution.
	Latency stats.Welford
	// WinRate is the colocation-game success rate achieved.
	WinRate stats.Proportion
	// QuantumFraction is the share of rounds decided with a live pair
	// (quantum architecture only).
	QuantumFraction float64
	// Supply and Pool expose the entanglement supply chain's lifecycle
	// counters (quantum architecture only; zero for the classical rows).
	Supply entangle.ServiceStats
	Pool   entangle.PoolStats
}

// RunTiming executes the three architectures over the same request stream
// and returns their rows.
func RunTiming(cfg TimingConfig) []TimingResult {
	game := games.NewColocationCHSH()

	local := runLocalClassical(cfg, game)
	quantum := runQuantumPreShared(cfg, game)
	coordinated := runCoordinated(cfg)

	return []TimingResult{local, quantum, coordinated}
}

// runLocalClassical: decide immediately with the best classical strategy.
func runLocalClassical(cfg TimingConfig, game *games.XORGame) TimingResult {
	rng := xrand.New(cfg.Seed, 1)
	s := game.BestClassicalSampler()
	res := TimingResult{Architecture: "local-classical"}
	for i := 0; i < cfg.Rounds; i++ {
		x, y := game.SampleInput(rng)
		a, b := s.Sample(x, y, rng)
		res.WinRate.Add(game.Wins(x, y, a, b))
		res.Latency.Add(0)
	}
	return res
}

// runQuantumPreShared: an SPDC service fills a pool; each arriving round
// consumes a pair (decision latency = QNIC measurement) or falls back to
// the local classical strategy (latency ~0).
func runQuantumPreShared(cfg TimingConfig, game *games.XORGame) TimingResult {
	rng := xrand.New(cfg.Seed, 2)
	var engine netsim.Engine
	pool := entangle.NewPool(cfg.QNIC, 0)
	svc := entangle.StartService(&engine, cfg.Source, pool, rng.Split(1))

	session, err := NewSession(Config{
		Game:     game,
		Supplier: pool,
		QNIC:     cfg.QNIC,
		Seed:     cfg.Seed,
	})
	if err != nil {
		panic(err)
	}

	res := TimingResult{Architecture: "quantum-pre-shared"}
	arrivals := &workload.PoissonArrivals{Rate: cfg.RequestRate}
	arrRng := rng.Split(2)
	gameRng := rng.Split(3)
	for i := 0; i < cfg.Rounds; i++ {
		at := arrivals.Next(arrRng)
		engine.RunUntil(at) // let the source catch up to this wall-clock time
		x, y := game.SampleInput(gameRng)
		d := session.Round(engine.Now(), x, y)
		res.WinRate.Add(game.Wins(x, y, d.A, d.B))
		res.Latency.Add(d.Latency.Seconds())
	}
	svc.Stop()
	st := session.Stats()
	res.QuantumFraction = float64(st.QuantumRounds) / float64(st.Rounds)
	res.Supply = svc.Stats()
	res.Pool = pool.Stats()
	return res
}

// runCoordinated: server A ships its input to server B over the fiber and
// B replies with both answers, so every decision completes one round trip,
// 2·PropagationDelay(DistanceM), after its arrival. Knowing both inputs, B
// picks a = 0, b = Parity[x][y], which wins any XOR game with certainty.
func runCoordinated(cfg TimingConfig) TimingResult {
	rtt := (2 * netsim.PropagationDelay(cfg.DistanceM)).Seconds()
	res := TimingResult{Architecture: "coordinated-classical"}
	for i := 0; i < cfg.Rounds; i++ {
		res.Latency.Add(rtt)
		res.WinRate.Add(true)
	}
	return res
}

// ParetoSummary renders the frontier rows for reports.
func ParetoSummary(rows []TimingResult) string {
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("%-24s latency=%9.1fµs  win=%.4f  quantum=%.2f\n",
			r.Architecture, r.Latency.Mean()*1e6, r.WinRate.Rate(), r.QuantumFraction)
	}
	return out
}
