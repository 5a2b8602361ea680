package entangle

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

func testQNIC() QNICConfig {
	return QNICConfig{
		StorageLimit:   100 * time.Microsecond,
		CoherenceT2:    200 * time.Microsecond,
		MeasureLatency: time.Microsecond,
	}
}

func TestPoolFreshestFirstConsumption(t *testing.T) {
	p := NewPool(testQNIC(), 0)
	p.Add(Pair{ArrivedAt: 0, V0: 0.9})
	p.Add(Pair{ArrivedAt: 10 * time.Microsecond, V0: 0.99})
	v, ok := p.TryConsume(20 * time.Microsecond)
	if !ok {
		t.Fatal("pool should have pairs")
	}
	// Freshest first: the 0.99 pair, decayed 10µs over T2=200µs.
	want := 0.99 * math.Exp(-0.05)
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("visibility %v, want %v (freshest pair)", v, want)
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
	}
	// The older pair is still there and comes next.
	v2, ok := p.TryConsume(20 * time.Microsecond)
	if !ok || math.Abs(v2-0.9*math.Exp(-0.1)) > 1e-12 {
		t.Fatalf("second consume %v %v", v2, ok)
	}
}

func TestPoolExpiry(t *testing.T) {
	p := NewPool(testQNIC(), 0)
	p.Add(Pair{ArrivedAt: 0, V0: 1})
	p.Add(Pair{ArrivedAt: 90 * time.Microsecond, V0: 1})
	// At t=150µs the first pair (age 150µs > 100µs) is gone, second lives.
	v, ok := p.TryConsume(150 * time.Microsecond)
	if !ok {
		t.Fatal("second pair should be live")
	}
	want := math.Exp(-float64(60*time.Microsecond) / float64(200*time.Microsecond))
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("visibility %v, want %v", v, want)
	}
	st := p.Stats()
	if st.Expired != 1 || st.Consumed != 1 || st.Added != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolDryReturnsFalse(t *testing.T) {
	p := NewPool(testQNIC(), 0)
	if _, ok := p.TryConsume(0); ok {
		t.Fatal("empty pool must return false")
	}
	p.Add(Pair{ArrivedAt: 0, V0: 1})
	if _, ok := p.TryConsume(time.Millisecond); ok {
		t.Fatal("fully expired pool must return false")
	}
}

func TestPoolCapacity(t *testing.T) {
	p := NewPool(testQNIC(), 2)
	if !p.Add(Pair{ArrivedAt: 0, V0: 1}) || !p.Add(Pair{ArrivedAt: 0, V0: 1}) {
		t.Fatal("adds under capacity should succeed")
	}
	if p.Add(Pair{ArrivedAt: 0, V0: 1}) {
		t.Fatal("add over capacity should fail")
	}
	// Capacity frees up once pairs expire.
	if !p.Add(Pair{ArrivedAt: 200 * time.Microsecond, V0: 1}) {
		t.Fatal("expiry should free capacity")
	}
}

func TestPerfectAndEmptySuppliers(t *testing.T) {
	v, ok := PerfectSupplier{Visibility: 0.97}.TryConsume(0)
	if !ok || v != 0.97 {
		t.Fatalf("perfect supplier: %v %v", v, ok)
	}
	if _, ok := (EmptySupplier{}).TryConsume(0); ok {
		t.Fatal("empty supplier must fail")
	}
}

func TestServiceDeliversAtExpectedRate(t *testing.T) {
	var e netsim.Engine
	rng := xrand.New(40, 1)
	src := SourceConfig{
		PairRate:           1e5, // one pair per 10µs
		BaseVisibility:     0.95,
		NPhotonFalloff:     1e-3,
		FiberLengthM:       0, // lossless for rate check
		AttenuationDBPerKm: 0.2,
	}
	pool := NewPool(testQNIC(), 0)
	svc := StartService(&e, src, pool, rng)
	e.RunUntil(10 * time.Millisecond) // 1000 intervals
	st := svc.Stats()
	if st.Generated != 1000 {
		t.Fatalf("generated %d, want 1000", st.Generated)
	}
	if st.Delivered != 1000 || st.LostFiber != 0 {
		t.Fatalf("lossless fiber should deliver everything: %+v", st)
	}
	svc.Stop()
	before := svc.Stats().Generated
	e.RunUntil(20 * time.Millisecond)
	if svc.Stats().Generated != before {
		t.Fatal("Stop did not halt generation")
	}
}

func TestServiceFiberLoss(t *testing.T) {
	var e netsim.Engine
	rng := xrand.New(41, 1)
	src := SourceConfig{
		PairRate:           1e5,
		BaseVisibility:     0.95,
		NPhotonFalloff:     1e-3,
		FiberLengthM:       50_000, // 10 dB/arm → 1% pair delivery
		AttenuationDBPerKm: 0.2,
	}
	pool := NewPool(QNICConfig{StorageLimit: time.Hour, CoherenceT2: time.Hour}, 0)
	svc := StartService(&e, src, pool, rng)
	e.RunUntil(time.Second) // 100k attempts
	st := svc.Stats()
	rate := float64(st.Delivered) / float64(st.Generated)
	if math.Abs(rate-0.01) > 0.004 {
		t.Fatalf("delivery rate %v, want ~0.01", rate)
	}
	svc.Stop()
}

func TestServiceRespectsPoolCapacity(t *testing.T) {
	var e netsim.Engine
	rng := xrand.New(42, 1)
	src := DefaultSource()
	src.FiberLengthM = 0
	pool := NewPool(QNICConfig{StorageLimit: time.Hour, CoherenceT2: time.Hour}, 5)
	svc := StartService(&e, src, pool, rng)
	e.RunUntil(10 * time.Millisecond)
	if pool.Len() != 5 {
		t.Fatalf("pool len %d, want capacity 5", pool.Len())
	}
	if svc.Stats().Rejected == 0 {
		t.Fatal("overflow should be counted as rejected")
	}
	svc.Stop()
}

// TestSupplyDemandBalance reproduces the §3 arithmetic: when decisions
// consume pairs faster than the delivered rate, the pool runs dry and some
// decisions must fall back to classical.
func TestSupplyDemandBalance(t *testing.T) {
	var e netsim.Engine
	rng := xrand.New(43, 1)
	src := SourceConfig{
		PairRate:           1e4, // 100µs between pairs
		BaseVisibility:     0.95,
		NPhotonFalloff:     1e-3,
		FiberLengthM:       0,
		AttenuationDBPerKm: 0.2,
	}
	pool := NewPool(QNICConfig{StorageLimit: time.Second, CoherenceT2: time.Hour}, 0)
	svc := StartService(&e, src, pool, rng)

	var quantum, classical int
	// Demand at 2× the supply rate.
	cancel := e.Every(50*time.Microsecond, func() {
		if _, ok := pool.TryConsume(e.Now()); ok {
			quantum++
		} else {
			classical++
		}
	})
	e.RunUntil(100 * time.Millisecond)
	cancel()
	svc.Stop()

	total := quantum + classical
	qRate := float64(quantum) / float64(total)
	if math.Abs(qRate-0.5) > 0.05 {
		t.Fatalf("quantum decision fraction %v, want ~0.5 at 2x oversubscription", qRate)
	}
}

func BenchmarkPoolAddConsume(b *testing.B) {
	p := NewPool(QNICConfig{StorageLimit: time.Hour, CoherenceT2: time.Hour}, 0)
	for i := 0; i < b.N; i++ {
		p.Add(Pair{ArrivedAt: time.Duration(i), V0: 0.95})
		p.TryConsume(time.Duration(i))
	}
}

// catchUpCase is one window shape of the engine catch-up: a source and how
// far each catch-up advances the clock.
type catchUpCase struct {
	name string
	src  func(*SourceConfig)
	step time.Duration
}

func defaultRate(*SourceConfig) {}

// provisionedRate keeps 255 pairs in flight and ~91 live in the pool.
func provisionedRate(s *SourceConfig) { s.PairRate = 1e6; s.HeraldLatency = 250 * time.Microsecond }

// start builds the case's supply chain, runs 16 catch-ups so the pool and
// in-flight rings reach their working size, and returns the next catch-up.
func (tc catchUpCase) start() (src SourceConfig, svc *Service, catchUp func()) {
	e := new(netsim.Engine)
	src = DefaultSource()
	tc.src(&src)
	svc = StartService(e, src, NewPool(testQNIC(), 256), xrand.New(9, 1))
	now := time.Duration(0)
	catchUp = func() {
		now += tc.step
		e.RunUntil(now)
	}
	for i := 0; i < 16; i++ {
		catchUp()
	}
	return src, svc, catchUp
}

// TestServiceCatchUpAllocs gates the supply chain's steady state at zero
// allocations: once the pool and in-flight rings have reached their working
// size, an engine catch-up — a handful of pairs or thousands — queues
// nothing and allocates nothing. That working size is itself gated: the bulk
// catch-up pushes a chunk of ticks before it lands any, so the in-flight
// ring may hold one chunk beside the pairs really in flight, never the
// window's 2 500.
func TestServiceCatchUpAllocs(t *testing.T) {
	for _, tc := range []catchUpCase{
		{"default/20us", defaultRate, 20 * time.Microsecond},
		{"default/25ms", defaultRate, 25 * time.Millisecond},
		{"provisioned/1ms", provisionedRate, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, svc, catchUp := tc.start()
			if avg := testing.AllocsPerRun(200, catchUp); avg != 0 {
				t.Fatalf("catch-up of %v allocates %v per run", tc.step, avg)
			}
			if svc.Stats().Delivered == 0 {
				t.Fatal("nothing was delivered: the gate measured an idle source")
			}
			inFlight := int(src.DeliveryLatency()/src.Interval()) + 1
			if got, most := len(svc.flights.buf), 2*(bulkChunk+inFlight); got > most {
				t.Fatalf("in-flight ring grew to %d slots; a chunk plus %d in flight fits in %d", got, inFlight, most)
			}
		})
	}
}

// BenchmarkServiceCatchUp times one engine catch-up per iteration at the
// three window shapes serving sees — the daemon's 25 ms idle cap, a busy
// session's one or two ticks, and a provisioned source with its ring of
// pairs in flight — and reports host time per generation tick.
func BenchmarkServiceCatchUp(b *testing.B) {
	for _, tc := range []catchUpCase{
		{"default-25ms", defaultRate, 25 * time.Millisecond},
		{"default-16us", defaultRate, 16 * time.Microsecond},
		{"provisioned-1ms", provisionedRate, time.Millisecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, svc, catchUp := tc.start()
			ticks := svc.Stats().Generated
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				catchUp()
			}
			b.StopTimer()
			ticks = svc.Stats().Generated - ticks
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
		})
	}
}
