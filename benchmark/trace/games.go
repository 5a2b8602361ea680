package main

// Layer: games — the XOR-game solvers, the solve cache in front of them, and
// the samplers a round draws from.

import (
	"runtime"
	"time"

	"repro/internal/games"
	"repro/internal/xrand"
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink float64

// probeGames measures the solvers uncached on the Figure 3 ensemble (random
// K5 affinity games) and on CHSH, a solve-cache hit, the batch pipeline cold
// and warm on 64 random K6 games at nproc workers (writes beside reads on
// the striped cache), and one draw from each sampler a serving round uses.
func probeGames(m values, unit time.Duration) {
	base := xrand.New(7, 3).Uint64()
	k5 := make([]*games.XORGame, 64)
	for i := range k5 {
		k5[i] = games.RandomGraphXORGame(5, 0.5, xrand.Derive(base, uint64(i)))
	}
	rng := xrand.New(7, 4)
	m["games.classical_ns.k5"] = perOp(unit, len(k5), func(n int) {
		for i := 0; i < n; i++ {
			sink += k5[i].ClassicalValueUncached().Value
		}
	})
	m["games.quantum_ns.k5"] = perOp(unit, len(k5), func(n int) {
		for i := 0; i < n; i++ {
			sink += k5[i].QuantumValueUncached(rng).Value
		}
	})
	chsh := games.NewCHSH()
	m["games.quantum_ns.chsh"] = perOp(unit, 16, func(n int) {
		for i := 0; i < n; i++ {
			sink += chsh.QuantumValueUncached(rng).Value
		}
	})

	chsh.QuantumValue(rng) // populate
	const hits = 1 << 10
	m["games.cache_hit_ns"] = perOp(unit, hits, func(n int) {
		for i := 0; i < n; i++ {
			sink += chsh.QuantumValue(rng).Value
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		sink += chsh.QuantumValue(rng).Value
	}
	runtime.ReadMemStats(&after)
	m["games.cache_hit_allocs"] = float64(after.Mallocs-before.Mallocs) / hits

	k6 := make([]*games.XORGame, 64)
	for i := range k6 {
		k6[i] = games.RandomGraphXORGame(6, 0.5, xrand.Derive(base, uint64(1000+i)))
	}
	workers := runtime.NumCPU()
	batch := func() float64 {
		start := time.Now()
		games.SolveBatch(k6, workers)
		return float64(len(k6)) / time.Since(start).Seconds()
	}
	games.ResetSolveCache()
	m["games.solve_batch_per_s.cold"] = batch()
	m["games.solve_batch_per_s.warm"] = batch()

	colo := games.NewColocationCHSH()
	bell := games.NewBellSampler(games.OptimalColocationAngles(), 0.95, xrand.New(7, 5))
	xor := colo.QuantumValue(rng).QuantumSampler(0.95)
	classical := colo.BestClassicalSampler()
	draw := func(s games.JointSampler) float64 {
		return perOp(unit, 1<<14, func(n int) {
			for i := 0; i < n; i++ {
				a, b := s.Sample(i&1, i>>1&1, rng)
				sink += float64(a + b)
			}
		})
	}
	m["games.sampler_ns.bell"] = draw(bell)
	m["games.sampler_ns.xor"] = draw(xor)
	m["games.sampler_ns.classical"] = draw(classical)
}
