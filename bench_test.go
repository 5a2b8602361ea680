package ftlq

// One benchmark per experiment (figure/table) of the paper, as required by
// the reproduction harness. Each BenchmarkEx runs a reduced-size version of
// the corresponding experiment so `go test -bench=.` exercises every
// pipeline end-to-end; the cmd/ binaries run the full-size versions.

import (
	"math"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/ecmp"
	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/netsim"
	"repro/internal/qkd"
	"repro/internal/qsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// BenchmarkE1CHSH regenerates E1: CHSH classical and quantum values plus a
// sampled win-rate estimate.
func BenchmarkE1CHSH(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(1, 1)
	g := games.NewCHSH()
	for i := 0; i < b.N; i++ {
		c := g.ClassicalValue()
		q := g.QuantumValue(rng)
		if math.Abs(c.Value-0.75) > 1e-9 || math.Abs(q.Value-0.8535533905932737) > 1e-6 {
			b.Fatalf("values drifted: c=%v q=%v", c.Value, q.Value)
		}
		s := q.QuantumSampler(1.0)
		wins := 0
		const rounds = 2000
		for r := 0; r < rounds; r++ {
			x, y := g.SampleInput(rng)
			aa, bb := s.Sample(x, y, rng)
			if g.Wins(x, y, aa, bb) {
				wins++
			}
		}
		if float64(wins)/rounds < 0.8 {
			b.Fatalf("sampled rate %v too low", float64(wins)/rounds)
		}
	}
}

// BenchmarkE2XORAdvantage regenerates one Figure 3 sweep point: the
// probability a random K5 XOR game at p=0.5 has a quantum advantage.
func BenchmarkE2XORAdvantage(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(2, 2)
	for i := 0; i < b.N; i++ {
		p := games.AdvantageProbability(5, 0.5, 20, rng)
		if p < 0.2 {
			b.Fatalf("advantage probability %v implausibly low at p=0.5", p)
		}
	}
}

// BenchmarkE3LoadBalance regenerates one Figure 4 point: classical vs
// quantum mean queue length at load 1.1.
func BenchmarkE3LoadBalance(b *testing.B) {
	b.ReportAllocs()
	cfg := loadbalance.Config{
		NumBalancers: 100, NumServers: 91,
		Warmup: 500, Slots: 2000,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       3,
	}
	for i := 0; i < b.N; i++ {
		rc := loadbalance.Run(cfg, loadbalance.RandomStrategy{})
		rq := loadbalance.Run(cfg, loadbalance.NewQuantumPairedStrategy(1.0, xrand.New(3, uint64(i))))
		if rq.QueueLen.Mean() >= rc.QueueLen.Mean() {
			b.Fatalf("quantum %v not below classical %v at the knee",
				rq.QueueLen.Mean(), rc.QueueLen.Mean())
		}
	}
}

// BenchmarkE4Timing regenerates Figure 2: the three-architecture latency
// and win-rate comparison.
func BenchmarkE4Timing(b *testing.B) {
	b.ReportAllocs()
	cfg := core.DefaultTimingConfig()
	cfg.Rounds = 2000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		rows := core.RunTiming(cfg)
		if len(rows) != 3 {
			b.Fatal("missing architecture rows")
		}
	}
}

// BenchmarkE5ECMP regenerates the §4.2 collision comparison and reduction.
func BenchmarkE5ECMP(b *testing.B) {
	b.ReportAllocs()
	cfg := ecmp.Config{NumSwitches: 6, NumPaths: 2, ActiveK: 2, Rounds: 5000, Seed: 5}
	for i := 0; i < b.N; i++ {
		shared := ecmp.Run(cfg, ecmp.SharedPermutation{})
		bound := ecmp.ExactBestClassical(6, 2, 2)
		if shared.Collisions.Mean() < bound-3*shared.Collisions.CI95() {
			b.Fatalf("collisions %v below proved bound %v", shared.Collisions.Mean(), bound)
		}
		rep := ecmp.StandardReductionDemo()
		if rep.MaxMarginalShift > 1e-10 || rep.MixtureError > 1e-10 {
			b.Fatalf("reduction demo failed: %+v", rep)
		}
	}
}

// BenchmarkE6Noise regenerates the visibility sweep: quantum colocation
// success degrading to classical at V = 1/√2.
func BenchmarkE6Noise(b *testing.B) {
	b.ReportAllocs()
	cfg := loadbalance.Config{
		NumBalancers: 40, NumServers: 36,
		Warmup: 200, Slots: 2000,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       6,
	}
	for i := 0; i < b.N; i++ {
		sCrit := loadbalance.NewQuantumPairedStrategy(1/math.Sqrt2, xrand.New(6, uint64(i)))
		loadbalance.Run(cfg, sCrit)
		if math.Abs(sCrit.ColocationStats().Rate()-0.75) > 0.03 {
			b.Fatalf("critical-visibility colocation %v, want 0.75", sCrit.ColocationStats().Rate())
		}
	}
}

// BenchmarkE7Supply regenerates the supply-vs-demand experiment: pool
// starvation under 2x oversubscription.
func BenchmarkE7Supply(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var engine netsim.Engine
		rng := xrand.New(7, uint64(i))
		src := entangle.DefaultSource()
		pool := entangle.NewPool(entangle.DefaultQNIC(), 0)
		svc := entangle.StartService(&engine, src, pool, rng)
		quantum, classical := 0, 0
		demand := time.Duration(float64(time.Second) / (2 * src.PairRate))
		cancel := engine.Every(demand, func() {
			if _, ok := pool.TryConsume(engine.Now()); ok {
				quantum++
			} else {
				classical++
			}
		})
		engine.RunUntil(50 * time.Millisecond)
		cancel()
		svc.Stop()
		frac := float64(quantum) / float64(quantum+classical)
		if frac < 0.3 || frac > 0.7 {
			b.Fatalf("quantum fraction %v at 2x oversubscription, want ~0.5", frac)
		}
	}
}

// BenchmarkE8GHZ regenerates the Mermin–GHZ experiment: classical 0.75 vs
// the always-winning GHZ strategy.
func BenchmarkE8GHZ(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(8, 8)
	g := games.MerminGHZ()
	for i := 0; i < b.N; i++ {
		if math.Abs(g.ClassicalValue()-0.75) > 1e-9 {
			b.Fatal("classical value drifted")
		}
		s := games.NewGHZSampler(3, rng)
		if v := g.EmpiricalValue(s, 500, rng); v != 1 {
			b.Fatalf("GHZ strategy lost: %v", v)
		}
	}
}

// BenchmarkE9SupplyLimited regenerates the supply-limited balancing point:
// half-rate supply gives a ~50% quantum fraction.
func BenchmarkE9SupplyLimited(b *testing.B) {
	b.ReportAllocs()
	cfg := loadbalance.Config{
		NumBalancers: 40, NumServers: 38,
		Warmup: 200, Slots: 2000,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       9,
	}
	demand := float64(cfg.NumBalancers/2) * 1000
	for i := 0; i < b.N; i++ {
		s := loadbalance.NewSupplyLimitedStrategy(
			loadbalance.NewRatedSupplier(demand/2, 1.0, 64), time.Millisecond, xrand.New(9, uint64(i)))
		loadbalance.Run(cfg, s)
		if f := s.QuantumFraction(); math.Abs(f-0.5) > 0.06 {
			b.Fatalf("quantum fraction %v, want ~0.5", f)
		}
	}
}

// BenchmarkE10MultiClass regenerates the 3-class scheduling comparison.
func BenchmarkE10MultiClass(b *testing.B) {
	b.ReportAllocs()
	kinds := []games.ClassKind{games.KindExclusive, games.KindCaching, games.KindCaching}
	game := games.MultiClassColocationGame(kinds, []float64{1, 1, 1})
	cfg := loadbalance.Config{
		NumBalancers: 40, NumServers: 36,
		Warmup: 200, Slots: 2000,
		Discipline: loadbalance.BatchSameClassC,
		Workload: workload.MultiClass{Weights: []float64{1, 1, 1},
			ClassTypes: []workload.TaskType{workload.TypeE, workload.TypeC, workload.TypeC}},
		Seed: 10,
	}
	for i := 0; i < b.N; i++ {
		q := loadbalance.NewGraphPairedStrategy(game, 1.0, xrand.New(10, uint64(i)))
		loadbalance.Run(cfg, q)
		if q.ColocationStats().Rate() < 0.8 {
			b.Fatalf("multi-class colocation %v", q.ColocationStats().Rate())
		}
	}
}

// BenchmarkE11Repeater regenerates the swap-law verification and crossover.
func BenchmarkE11Repeater(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, veff := entangle.SwapWernerPairs(0.95, 0.9)
		if math.Abs(veff-0.855) > 1e-9 {
			b.Fatalf("swap law broken: %v", veff)
		}
		if s := entangle.CrossoverSegments(entangle.DefaultSource(), 300_000, 0.5, 16); s == 0 {
			b.Fatal("no crossover found at 300 km")
		}
	}
}

// BenchmarkE12Certification regenerates the three-tier certification.
func BenchmarkE12Certification(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(12, 12)
	g := games.NewCHSH()
	q := g.QuantumValue(rng)
	for i := 0; i < b.N; i++ {
		cert := games.CertifyCHSH(q.QuantumSampler(0.95), 5000, rng)
		if !cert.ViolatesClassicalBound(3) || !cert.WithinTsirelson(3) {
			b.Fatalf("certification verdicts wrong: S=%v", cert.S)
		}
	}
}

// BenchmarkE13CacheMechanism regenerates the LRU hit-rate comparison.
func BenchmarkE13CacheMechanism(b *testing.B) {
	b.ReportAllocs()
	cfg := cachesim.Config{
		NumDispatchers: 24, NumServers: 42,
		NumTextures: 3, TextureWeights: []float64{1, 1, 1},
		CacheSlots: 2, HitCost: 1, MissCost: 3,
		Warmup: 200, Ticks: 2000,
		Seed: 13,
	}
	kinds := []games.ClassKind{games.KindCaching, games.KindCaching, games.KindCaching}
	game := games.MultiClassColocationGame(kinds, cfg.TextureWeights)
	for i := 0; i < b.N; i++ {
		rr := cachesim.Run(cfg, loadbalance.RandomStrategy{})
		rq := cachesim.Run(cfg, loadbalance.NewGraphPairedStrategy(game, 1.0, xrand.New(13, uint64(i))))
		if rq.HitRate.Rate() <= rr.HitRate.Rate() {
			b.Fatalf("quantum hit rate %v not above random %v", rq.HitRate.Rate(), rr.HitRate.Rate())
		}
	}
}

// BenchmarkE14LeaderElection regenerates the W-state election comparison.
func BenchmarkE14LeaderElection(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(14, 14)
	for i := 0; i < b.N; i++ {
		st := games.RunLeaderElection(5, 2000, rng)
		if st.QuantumSuccess != 1 {
			b.Fatalf("quantum election failed: %v", st.QuantumSuccess)
		}
		if math.Abs(st.ClassicalSuccess-games.ClassicalLeaderElectionValue(5)) > 0.05 {
			b.Fatalf("classical election rate %v off formula", st.ClassicalSuccess)
		}
	}
}

// BenchmarkE15AdaptiveMeasurement regenerates the dephasing re-optimization.
func BenchmarkE15AdaptiveMeasurement(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(15, 15)
	g := games.NewCHSH()
	rho := qsim.DensityFromPure(qsim.Bell()).
		ApplyChannel(0, qsim.Dephasing(0.6)).
		ApplyChannel(1, qsim.Dephasing(0.6))
	for i := 0; i < b.N; i++ {
		fixed, adapted := games.AdaptiveGain(g, rho, games.OptimalCHSHAngles(), rng)
		if adapted < fixed {
			b.Fatalf("adaptation lost value: %v < %v", adapted, fixed)
		}
	}
}

// BenchmarkE16QKD regenerates the key-distribution comparison: clean
// channel produces key, intercept-resend is detected.
func BenchmarkE16QKD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clean := qkd.Run(qkd.Config{Rounds: 3000, Visibility: 1, AbortS: 2, Seed: uint64(i + 1)})
		if clean.Aborted || clean.QBER.Successes() != 0 {
			b.Fatalf("clean channel failed: %v", clean)
		}
		tapped := qkd.Run(qkd.Config{Rounds: 3000, Visibility: 1, Eve: qkd.StandardEve(), AbortS: 2, Seed: uint64(i + 1)})
		if !tapped.Aborted {
			b.Fatalf("eavesdropper not detected: %v", tapped)
		}
	}
}

// BenchmarkE17Chaos regenerates a reduced fault-injection run: the full
// phase schedule against a resilient session, classical floor held.
func BenchmarkE17Chaos(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.RunChaos(core.ChaosConfig{
			Game:    games.NewColocationCHSH(),
			Source:  entangle.DefaultSource(),
			QNIC:    entangle.DefaultQNIC(),
			PoolCap: 64,
			Chain:   &entangle.RepeaterChain{Segments: 4, Source: entangle.DefaultSource(), BSMSuccess: 0.5},
			Phases:  core.DefaultChaosPhases(300),
			Seed:    42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.FloorHeld {
			b.Fatalf("classical floor broken: %+v", res.Phases)
		}
	}
}

// BenchmarkServeHotPath isolates the simulator's inner loop: one overloaded
// load-balancing run per iteration, dominated by World push/serve traffic on
// queues that grow to hundreds of tasks. The per-type FIFOs keep each serve
// O(1) at any queue length, and the reused scratch buffers keep the
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
