package entangle

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

// TestPoolConsumeAtExpiryBoundary pins the strict-inequality expiry
// contract: a pair exactly StorageLimit old is still live and consumable;
// one nanosecond later it is gone.
func TestPoolConsumeAtExpiryBoundary(t *testing.T) {
	q := testQNIC()
	p := NewPool(q, 0)
	p.Add(Pair{ArrivedAt: 0, V0: 1})
	v, ok := p.TryConsume(q.StorageLimit)
	if !ok {
		t.Fatal("pair exactly at the storage limit must still be consumable")
	}
	want := math.Exp(-float64(q.StorageLimit) / float64(q.CoherenceT2))
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("boundary visibility %v, want %v", v, want)
	}

	p.Add(Pair{ArrivedAt: 0, V0: 1})
	if _, ok := p.TryConsume(q.StorageLimit + 1); ok {
		t.Fatal("pair one tick past the storage limit must be expired")
	}
	if p.Stats().Expired != 1 {
		t.Fatalf("expired count = %d, want 1", p.Stats().Expired)
	}
}

// TestPoolCapFullRacesExpiry: when an Add arrives in the same tick as the
// oldest pair's expiry, the freed slot must be usable — expiry runs first.
func TestPoolCapFullRacesExpiry(t *testing.T) {
	q := testQNIC()
	p := NewPool(q, 2)
	p.Add(Pair{ArrivedAt: 0, V0: 1})
	p.Add(Pair{ArrivedAt: 10 * time.Microsecond, V0: 1})
	// At t = StorageLimit+1 the first pair has just expired; the pool was
	// full but must accept the newcomer into the freed slot.
	at := q.StorageLimit + 1
	if !p.Add(Pair{ArrivedAt: at, V0: 1}) {
		t.Fatal("Add must reuse the slot freed by same-tick expiry")
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
	st := p.Stats()
	if st.Expired != 1 || st.Added != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolExpireReleasesBackingPrefix is the regression test for the
// expired-prefix retention bug: expire used to re-slice forward
// (p.pairs = p.pairs[i:]), which both kept the expired structs reachable
// and permanently shrank the slice's usable capacity. The head-indexed ring
// that replaced it reuses expired slots in place, so capacity stays constant
// across arbitrarily many expiry cycles.
func TestPoolExpireReleasesBackingPrefix(t *testing.T) {
	q := testQNIC()
	p := NewPool(q, 0)
	for i := 0; i < 64; i++ {
		p.Add(Pair{ArrivedAt: 0, V0: 1})
	}
	base := poolCap(p)
	// 1000 cycles of "everything expires, one new pair arrives". Under the
	// forward re-slice the capacity erodes by the expired count per cycle
	// and Add reallocates over and over; the ring never moves.
	now := time.Duration(0)
	for cycle := 0; cycle < 1000; cycle++ {
		now += q.StorageLimit + 1
		p.Add(Pair{ArrivedAt: now, V0: 1})
	}
	if got := poolCap(p); got != base {
		t.Fatalf("backing capacity drifted %d → %d; expired prefix retained", base, got)
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d, want 1", p.Len())
	}
}

func poolCap(p *Pool) int { return len(p.pairs.buf) }

// TestPoolSetT2ScaleExactPiecewiseDecay checks the spike math against the
// closed form: a pair living t₁ at nominal T2, then t₂ at scaled T2 s,
// then t₃ nominal again has V = V₀·e^{−(t₁+t₂+t₃)/T2}·e^{−t₂·(1/(sT2)−1/T2)}.
func TestPoolSetT2ScaleExactPiecewiseDecay(t *testing.T) {
	q := testQNIC()
	p := NewPool(q, 0)
	const v0 = 0.95
	p.Add(Pair{ArrivedAt: 0, V0: v0})

	t1 := 10 * time.Microsecond
	t2d := 20 * time.Microsecond
	t3 := 15 * time.Microsecond
	scale := 0.25

	p.SetT2Scale(t1, scale) // spike starts
	p.SetT2Scale(t1+t2d, 1) // spike ends
	total := t1 + t2d + t3
	v, ok := p.TryConsume(total)
	if !ok {
		t.Fatal("pair should be live")
	}
	T2 := float64(q.CoherenceT2)
	want := v0 * math.Exp(-float64(total)/T2) *
		math.Exp(-float64(t2d)*(1/(T2*scale)-1/T2))
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("piecewise visibility %v, want %v", v, want)
	}
}

// TestPoolSetT2ScaleOnlyAffectsOverlap: a pair arriving after the spike
// closed decays at the nominal rate only.
func TestPoolSetT2ScaleOnlyAffectsOverlap(t *testing.T) {
	q := testQNIC()
	p := NewPool(q, 0)
	p.SetT2Scale(0, 0.1)
	p.SetT2Scale(30*time.Microsecond, 1)
	p.Add(Pair{ArrivedAt: 40 * time.Microsecond, V0: 1})
	v, ok := p.TryConsume(50 * time.Microsecond)
	if !ok {
		t.Fatal("pair should be live")
	}
	want := math.Exp(-float64(10*time.Microsecond) / float64(q.CoherenceT2))
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("post-spike pair decayed wrongly: %v, want %v", v, want)
	}
}

func TestPoolFlush(t *testing.T) {
	p := NewPool(testQNIC(), 0)
	for i := 0; i < 5; i++ {
		p.Add(Pair{ArrivedAt: 0, V0: 1})
	}
	if n := p.Flush(); n != 5 {
		t.Fatalf("Flush dropped %d, want 5", n)
	}
	if p.Len() != 0 || p.Stats().Flushed != 5 {
		t.Fatalf("post-flush state: len=%d stats=%+v", p.Len(), p.Stats())
	}
	if n := p.Flush(); n != 0 {
		t.Fatalf("empty Flush dropped %d", n)
	}
}

// TestServiceStopDropsInFlightPairs is the regression test for the
// stop-in-flight bug: a propagation callback scheduled before Stop used to
// fire afterwards and mutate the pool and stats behind the owner's back.
// Now in-flight pairs are discarded on arrival and counted.
func TestServiceStopDropsInFlightPairs(t *testing.T) {
	var engine netsim.Engine
	src := SourceConfig{
		PairRate:       1e5, // 10µs interval
		BaseVisibility: 0.98,
		NPhotonFalloff: 1e-3,
		FiberLengthM:   1000, // 5µs propagation
	}
	pool := NewPool(testQNIC(), 0)
	svc := StartService(&engine, src, pool, xrand.New(7, 1))

	// Run just past the second generation tick (t=20µs): its pair (if the
	// fiber coin came up heads) is in flight until t=25µs.
	engine.RunUntil(21 * time.Microsecond)
	svc.Stop()
	delivered := svc.Stats().Delivered
	poolLen := pool.Len()

	// Drain everything still scheduled; the stopped service must be silent.
	engine.RunUntil(time.Second)
	st := svc.Stats()
	if pool.Len() != poolLen || st.Delivered != delivered {
		t.Fatalf("stopped service mutated pool: len %d→%d, delivered %d→%d",
			poolLen, pool.Len(), delivered, st.Delivered)
	}
	if st.Generated <= delivered && st.DroppedAfterStop == 0 {
		t.Skip("no pair was in flight at stop (fiber loss); nothing to assert")
	}
	if st.DroppedAfterStop == 0 {
		t.Fatal("in-flight pair at Stop must be counted as DroppedAfterStop")
	}
	if st.Generated > st.LostFiber+st.Delivered+st.Rejected+st.DroppedAfterStop {
		t.Fatalf("pair accounting leaks: %+v", st)
	}
}

func TestServiceOutageSuppressesGeneration(t *testing.T) {
	var engine netsim.Engine
	src := DefaultSource()
	pool := NewPool(testQNIC(), 0)
	svc := StartService(&engine, src, pool, xrand.New(3, 1))

	engine.RunUntil(500 * time.Microsecond)
	genBefore := svc.Stats().Generated
	svc.SetOutage(true)
	engine.RunUntil(time.Millisecond)
	st := svc.Stats()
	if st.Generated != genBefore {
		t.Fatalf("outage did not stop generation: %d → %d", genBefore, st.Generated)
	}
	if st.Suppressed == 0 {
		t.Fatal("outage ticks must be counted as Suppressed")
	}
	svc.SetOutage(false)
	engine.RunUntil(1500 * time.Microsecond)
	if svc.Stats().Generated <= genBefore {
		t.Fatal("generation must resume after the outage clears")
	}
	svc.Stop()
}

func TestServiceDeliveryScaleThinsSupply(t *testing.T) {
	run := func(scale float64) int64 {
		var engine netsim.Engine
		src := DefaultSource()
		pool := NewPool(testQNIC(), 0)
		svc := StartService(&engine, src, pool, xrand.New(11, 1))
		svc.SetDeliveryScale(scale)
		engine.RunUntil(100 * time.Millisecond)
		svc.Stop()
		return svc.Stats().Delivered
	}
	full, thinned := run(1), run(0.05)
	if thinned >= full/4 {
		t.Fatalf("scale 0.05 delivered %d of %d — not thinned", thinned, full)
	}
	if thinned == 0 {
		t.Fatal("scale 0.05 should still deliver occasionally over 10k ticks")
	}
}

func TestServiceDeliveryScaleValidates(t *testing.T) {
	var engine netsim.Engine
	pool := NewPool(testQNIC(), 0)
	svc := StartService(&engine, DefaultSource(), pool, xrand.New(1, 1))
	defer svc.Stop()
	// NaN included: it fails every comparison, and as a delivery scale it
	// would lose every pair from then on.
	for _, f := range []float64{1.5, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetDeliveryScale(%v) should panic", f)
				}
			}()
			svc.SetDeliveryScale(f)
		}()
	}
}
