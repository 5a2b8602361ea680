package ftlq

// Benchmarks for `go test -bench=.`: every experiment block end to end, and
// the two inner loops the sweep spends most of its time in.

import (
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// BenchmarkExperiments runs every block of cmd/repro (experiments.All, the
// one implementation of E1–E20) at a twentieth of its default size, one
// sub-benchmark per experiment ID. What each block must show is asserted by
// the unit tests of the package it exercises, and repro_output.txt pins its
// bytes at the default size.
func BenchmarkExperiments(b *testing.B) {
	o := experiments.Options{Seed: 42, Scale: 0.05}
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Run(io.Discard, o)
			}
		})
	}
}

// BenchmarkServeHotPath isolates the simulator's inner loop: one overloaded
// load-balancing run per iteration, dominated by World push/serve traffic on
// queues that grow to hundreds of tasks. The per-type FIFOs keep each serve
// O(1) at any queue length, and the reused assignment buffer keeps the
// steady-state allocation count flat in Slots.
func BenchmarkServeHotPath(b *testing.B) {
	b.ReportAllocs()
	cfg := loadbalance.Config{
		NumBalancers: 100, NumServers: 80, // load 1.25: queues stay busy
		Warmup: 0, Slots: 2000,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       17,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := loadbalance.Run(cfg, loadbalance.RandomStrategy{})
		if r.Served == 0 {
			b.Fatal("nothing served")
		}
	}
}

// BenchmarkAscend isolates the Burer–Monteiro coordinate ascent that
// dominates XOR-game solving, bypassing the solve cache so every iteration
// pays full price (the gradient buffer is hoisted out of the sweep loop).
func BenchmarkAscend(b *testing.B) {
	b.ReportAllocs()
	g := games.MultiClassColocationGame(
		[]games.ClassKind{games.KindExclusive, games.KindCaching, games.KindCaching},
		[]float64{1, 1, 1})
	rng := xrand.New(18, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := g.QuantumValueUncached(rng)
		if q.Value < 0.8 {
			b.Fatalf("solver regressed: %v", q.Value)
		}
	}
}
