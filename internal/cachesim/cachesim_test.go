package cachesim

import (
	"math"
	"testing"

	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/xrand"
)

// testConfig uses THREE textures deliberately: the all-caching game on 3
// classes has a genuine quantum gap (0.778 vs 0.833), whereas on 4 or 6
// uniform classes the "always split" strategy is already optimal and no
// strategy colocates the diagonal at all (verified by the games scan tests).
// NumServers = 42 puts utilization high enough that cache-driven service-
// time savings dominate the pairing-induced queue imbalance.
func testConfig() Config {
	return Config{
		NumDispatchers: 24,
		NumServers:     42,
		NumTextures:    3,
		TextureWeights: []float64{1, 1, 1},
		CacheSlots:     2,
		HitCost:        1,
		MissCost:       3,
		Warmup:         500,
		Ticks:          4000,
		Seed:           31,
	}
}

func texturesGame(cfg Config) *games.XORGame {
	kinds := make([]games.ClassKind, cfg.NumTextures)
	for i := range kinds {
		kinds[i] = games.KindCaching
	}
	return games.MultiClassColocationGame(kinds, cfg.TextureWeights)
}

func TestLRUBasics(t *testing.T) {
	c := newLRU(2)
	if c.Touch(1) {
		t.Fatal("first touch cannot hit")
	}
	if !c.Touch(1) {
		t.Fatal("second touch must hit")
	}
	c.Touch(2)
	c.Touch(3) // evicts 1 (LRU)
	if c.Contains(1) {
		t.Fatal("1 should be evicted")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Fatal("2 and 3 should be resident")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	// Touching 2 promotes it; inserting 4 then evicts 3.
	c.Touch(2)
	c.Touch(4)
	if c.Contains(3) || !c.Contains(2) {
		t.Fatal("LRU promotion broken")
	}
}

func TestConservation(t *testing.T) {
	cfg := testConfig()
	cfg.Warmup = 0
	r := Run(cfg, loadbalance.RandomStrategy{})
	if r.Arrived != int64(cfg.NumDispatchers*cfg.Ticks) {
		t.Fatalf("arrivals %d", r.Arrived)
	}
	if r.Completed > r.Arrived {
		t.Fatal("completed more than arrived")
	}
	if r.Completed < r.Arrived/2 {
		t.Fatalf("only %d/%d completed — system badly overloaded for a conservation test",
			r.Completed, r.Arrived)
	}
}

// TestRunMomentsMatchPerSample pins Run's per-tick folds against the
// per-sample oracle runPerSample: the whole Result — hit rate, sojourn and
// backlog moments bit for bit, arrival and completion counts — with and
// without warm-up, for an unpaired and a paired strategy, at the test load
// and overloaded (queues that never drain).
func TestRunMomentsMatchPerSample(t *testing.T) {
	for _, servers := range []int{42, 20} {
		for _, warmup := range []int{0, 500} {
			cfg := testConfig()
			cfg.NumServers, cfg.Warmup, cfg.Ticks = servers, warmup, 1500
			strats := func() []loadbalance.Strategy {
				return []loadbalance.Strategy{
					loadbalance.RandomStrategy{},
					loadbalance.NewGraphPairedStrategy(texturesGame(cfg), 1.0, xrand.New(31, 2)),
				}
			}
			twins := strats()
			for i, strat := range strats() {
				if got, want := Run(cfg, strat), runPerSample(cfg, twins[i]); got != want {
					t.Fatalf("servers %d warmup %d %s:\nRun        %+v\nper-sample %+v",
						servers, warmup, strat.Name(), got, want)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	a := Run(cfg, loadbalance.RandomStrategy{})
	b := Run(cfg, loadbalance.RandomStrategy{})
	if a.HitRate.Rate() != b.HitRate.Rate() || a.Sojourn.Mean() != b.Sojourn.Mean() {
		t.Fatal("same seed must reproduce")
	}
}

func TestValidation(t *testing.T) {
	bad := testConfig()
	bad.TextureWeights = []float64{1}
	if bad.Validate() == nil {
		t.Fatal("mismatched weights should fail")
	}
	bad2 := testConfig()
	bad2.MissCost = 0
	if bad2.Validate() == nil {
		t.Fatal("MissCost < HitCost should fail")
	}
}

// TestColocationWarmsCache is the mechanism claim: texture-affinity routing
// (quantum pairs sending same-texture tasks to the same server) achieves a
// higher cache hit rate than random routing.
func TestColocationWarmsCache(t *testing.T) {
	cfg := testConfig()
	rng := xrand.New(32, 1)
	game := texturesGame(cfg)

	random := Run(cfg, loadbalance.RandomStrategy{})
	quantum := Run(cfg, loadbalance.NewGraphPairedStrategy(game, 1.0, rng))

	if quantum.HitRate.Rate() <= random.HitRate.Rate() {
		t.Fatalf("quantum hit rate %v not above random %v",
			quantum.HitRate.Rate(), random.HitRate.Rate())
	}
}

// TestHitRateImprovesSojourn: at high utilization the cache benefit shows
// up end-to-end as lower mean sojourn time under the same load. (At LOW
// utilization the opposite can hold — colocation concentrates two jobs on
// one server and queueing imbalance costs more than the warm cache saves;
// that tradeoff is part of the finding and documented in EXPERIMENTS.md.)
func TestHitRateImprovesSojourn(t *testing.T) {
	cfg := testConfig()
	rng := xrand.New(33, 1)
	game := texturesGame(cfg)

	random := Run(cfg, loadbalance.RandomStrategy{})
	quantum := Run(cfg, loadbalance.NewGraphPairedStrategy(game, 1.0, rng))

	if quantum.Sojourn.Mean() >= random.Sojourn.Mean() {
		t.Fatalf("quantum sojourn %v not below random %v",
			quantum.Sojourn.Mean(), random.Sojourn.Mean())
	}
}

// TestQuantumBeatsClassicalPairsOnCache: against the best classical paired
// strategy for the same texture game, entanglement still wins on hit rate —
// the gap is the game's quantum advantage, not the pairing structure.
func TestQuantumBeatsClassicalPairsOnCache(t *testing.T) {
	cfg := testConfig()
	cfg.Ticks = 20000 // the hit-rate margin is a few tenths of a percent
	rng := xrand.New(34, 1)
	game := texturesGame(cfg)

	classical := Run(cfg, loadbalance.NewGraphClassicalStrategy(game))
	quantum := Run(cfg, loadbalance.NewGraphPairedStrategy(game, 1.0, rng))

	if quantum.HitRate.Rate() <= classical.HitRate.Rate() {
		t.Fatalf("quantum hit rate %v not above classical-paired %v",
			quantum.HitRate.Rate(), classical.HitRate.Rate())
	}
}

func TestBigCacheErasesTheGap(t *testing.T) {
	// With caches big enough to hold every texture, routing stops
	// mattering: hit rates converge to ~1 for all strategies after warmup.
	cfg := testConfig()
	cfg.CacheSlots = cfg.NumTextures
	rng := xrand.New(35, 1)
	game := texturesGame(cfg)

	random := Run(cfg, loadbalance.RandomStrategy{})
	quantum := Run(cfg, loadbalance.NewGraphPairedStrategy(game, 1.0, rng))

	if random.HitRate.Rate() < 0.95 || quantum.HitRate.Rate() < 0.95 {
		t.Fatalf("full-size caches should hit nearly always: %v / %v",
			random.HitRate.Rate(), quantum.HitRate.Rate())
	}
	if math.Abs(random.HitRate.Rate()-quantum.HitRate.Rate()) > 0.03 {
		t.Fatalf("gap should vanish with full caches: %v vs %v",
			random.HitRate.Rate(), quantum.HitRate.Rate())
	}
}

func TestSkewedPopularity(t *testing.T) {
	// Hot textures make caches effective even under random routing; the
	// simulation must still run and hit rates must exceed the uniform case.
	cfg := testConfig()
	uniform := Run(cfg, loadbalance.RandomStrategy{})
	cfg.TextureWeights = []float64{10, 2, 1}
	skewed := Run(cfg, loadbalance.RandomStrategy{})
	if skewed.HitRate.Rate() <= uniform.HitRate.Rate() {
		t.Fatalf("skewed popularity should raise hit rate: %v vs %v",
			skewed.HitRate.Rate(), uniform.HitRate.Rate())
	}
}

func BenchmarkCacheSimRandom(b *testing.B) {
	cfg := testConfig()
	cfg.Warmup, cfg.Ticks = 100, 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, loadbalance.RandomStrategy{})
	}
}
