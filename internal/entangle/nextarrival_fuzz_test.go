package entangle_test

import (
	"testing"
	"time"

	"repro/internal/entangle"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// FuzzNextArrivalIsLowerBound drives one source through an arbitrary
// sequence of engine runs and control calls — outage, delivery scale,
// budget, Stop and pool consumption — and checks NextArrival before every
// run: it lies after the clock, no pair reaches the pool before it (the run
// is split there to see), and none at all while it reports that none can.
// The E20 wait loop runs the engine straight to this bound, so a pair
// landing earlier would be consumed late there.
func FuzzNextArrivalIsLowerBound(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Arrivals tie with ticks (1e6/s over 1 km), an outage and a collapsed
	// delivery scale mid-run, then a budget of one and a Stop.
	f.Add(uint64(7), []byte{1, 0, 0, 0, 0, 3, 4, 0, 3, 5, 5, 0, 0, 6, 6, 1, 0, 2, 7, 0, 0, 4})
	f.Add(uint64(9), []byte{2, 1, 1, 2, 4, 2, 7, 1, 3, 6, 0, 6, 0, 2, 7, 4, 1, 3})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		s := &script{b: data}
		src := entangle.DefaultSource()
		src.PairRate = pick(s, 1e5, 1e6, 1e4, 3e5, 7.7e4)
		src.FiberLengthM = pick(s, 1000.0, 0, 200, 10_000)
		src.HeraldLatency = pick(s, 0, time.Microsecond, 2*time.Microsecond, 3333*time.Nanosecond)
		pool := entangle.NewPool(entangle.DefaultQNIC(), pick(s, 64, 0, 1, 4))
		e := netsim.NewEngine()
		svc := entangle.StartService(e, src, pool, xrand.New(seed, 1))
		// A pair reaches the pool when it is stored or rejected at a full one.
		landed := func() int64 { st := svc.Stats(); return st.Delivered + st.Rejected }
		deltas := []time.Duration{1, 700 * time.Nanosecond, 5 * time.Microsecond, 20 * time.Microsecond,
			130 * time.Microsecond, time.Millisecond}
		for ops := 0; len(s.b) > 0 && ops < 64; ops++ {
			switch s.next() % 8 {
			case 0, 1, 2, 3:
				to := e.Now() + pick(s, deltas...)
				next, ok := svc.NextArrival()
				if ok && next <= e.Now() {
					t.Fatalf("op %d: NextArrival %v is not after the clock %v", ops, next, e.Now())
				}
				before := landed()
				if ok && next <= to {
					e.RunUntil(next - 1)
				} else {
					e.RunUntil(to)
				}
				if landed() != before {
					t.Fatalf("op %d: a pair landed by %v, before NextArrival (%v, %v)", ops, e.Now(), next, ok)
				}
				e.RunUntil(to)
			case 4:
				svc.SetOutage(s.next()%2 == 0)
			case 5:
				svc.SetDeliveryScale(pick(s, 0, 0.25, 1))
			case 6:
				svc.SetBudget(pick[int64](s, 0, 1, 3, 20))
			case 7:
				if s.next()%4 == 0 {
					svc.Stop()
				} else {
					pool.TryConsume(e.Now())
				}
			}
		}
	})
}
