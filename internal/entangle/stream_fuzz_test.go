package entangle_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/entangle"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// script feeds a fuzz input to the scenario builder one byte at a time; an
// exhausted script reads as zeros, so every input decodes to a scenario.
type script struct{ b []byte }

func (s *script) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func pick[T any](s *script, xs ...T) T { return xs[s.next()%len(xs)] }

// consumed is what one interleaved driver callback saw.
type consumed struct {
	At         time.Duration
	Visibility float64
	OK         bool
}

// outcome is everything the two source implementations must agree on.
type outcome struct {
	Service entangle.ServiceStats
	Pool    entangle.PoolStats
	Pairs   []entangle.Pair
	Now     time.Duration
	NextRNG uint64
	Driver  []consumed
	Partial []partial
}

// partial is the state a Step or Run(n) stopped in, part-way through the
// event stream: how many events it reported and what the source had counted.
type partial struct {
	Ran     int
	Now     time.Duration
	Service entangle.ServiceStats
}

type startFunc func(*netsim.Engine, entangle.SourceConfig, *entangle.Pool, *xrand.RNG) *entangle.Service

// play decodes data into a supply-chain scenario — source geometry, a fault
// schedule, then a run of engine operations interleaved with driver
// callbacks — and plays it on the source implementation start provides.
func play(start startFunc, seed uint64, data []byte) outcome {
	s := &script{b: data}
	src := entangle.DefaultSource()
	// 1e6 pairs/s over 1 km makes the delivery latency (5 µs) an exact
	// multiple of the interval, so arrivals tie with ticks on time; zero
	// fiber with zero herald makes a pair arrive at its own tick's time.
	src.PairRate = pick(s, 1e5, 1e6, 1e4, 3e5, 7.7e4, 2e6)
	src.FiberLengthM = pick(s, 1000.0, 0, 200, 10_000, 40_000)
	src.HeraldLatency = pick(s, 0, time.Microsecond, 10*time.Microsecond, 250*time.Microsecond, 3333*time.Nanosecond)
	interval := src.Interval()
	pool := entangle.NewPool(entangle.DefaultQNIC(), pick(s, 256, 0, 4, 1))
	budget := pick[int64](s, 0, 0, 0, 1, 40, 1000)
	e := netsim.NewEngine()
	// One byte is consumed and ignored: the committed corpus was recorded
	// when it chose between the calendar queue and netsim's heap scheduler,
	// and skipping it keeps every entry decoding to the same scenario. (The
	// heap is now netsim's own test oracle; TestCalendarHeapDifferential*
	// pin the two against each other with a stream attached.)
	s.next()

	var sched faults.Schedule
	for i, n := 0, s.next()%4; i < n; i++ {
		w := faults.Window{
			Kind: faults.Kind(1 + s.next()%faults.NumKinds),
			// interval is the first generation tick exactly.
			Start:    pick(s, interval, 0, 3*interval, interval+src.DeliveryLatency(), 47*time.Microsecond, time.Millisecond),
			Severity: float64(1+s.next()) / 256,
		}
		w.End = w.Start + pick(s, 0, interval, 30*time.Microsecond, 400*time.Microsecond, 3*time.Millisecond)
		sched.Windows = append(sched.Windows, w)
	}
	var svc *entangle.Service
	var out outcome
	consume := func() {
		v, ok := pool.TryConsume(e.Now())
		out.Driver = append(out.Driver, consumed{At: e.Now(), Visibility: v, OK: ok})
	}
	// Callbacks queued before the source starts hold smaller sequence
	// numbers than any tick, so on a shared timestamp they run before the
	// tick; the injector's, armed after, run behind it.
	for i, n := 0, s.next()%3; i < n; i++ {
		action := pick(s, func() { svc.SetOutage(true) }, func() { svc.SetOutage(false) },
			func() { svc.SetDeliveryScale(0.5) }, consume)
		e.Schedule(pick(s, interval, 2*interval, interval+src.DeliveryLatency()), action)
	}
	rng := xrand.New(seed, 1)
	svc = start(e, src, pool, rng)
	svc.SetBudget(budget)
	if len(sched.Windows) > 0 {
		faults.NewInjector(e, sched, faults.Target{Service: svc, Pool: pool}).Arm()
	}

	ran := func(n int) { out.Partial = append(out.Partial, partial{Ran: n, Now: e.Now(), Service: svc.Stats()}) }
	// 25 ms is the serving daemon's per-request cap, and with 1 ms and 5 ms
	// the windows long enough for the source's bulk catch-up; it is appended
	// so the corpus entries recorded with eight deltas decode as they did.
	deltas := []time.Duration{0, 1, 700 * time.Nanosecond, 5 * time.Microsecond, 20 * time.Microsecond,
		130 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond}
	for ops := 0; len(s.b) > 0 && ops < 64; ops++ {
		switch s.next() % 8 {
		case 0, 1, 2:
			e.RunUntil(e.Now() + pick(s, deltas...))
		case 3:
			if e.Step() {
				ran(1)
			} else {
				ran(0)
			}
		case 4:
			ran(e.Run(1 + s.next()))
		case 5, 6:
			stop := s.next()%8 == 0
			e.Schedule(pick(s, deltas...), func() {
				if stop {
					svc.Stop() // mid-run, with whatever is in flight
					return
				}
				consume()
			})
		case 7:
			if s.next()%4 == 0 {
				svc.Stop()
			}
		}
	}
	e.RunUntil(e.Now() + 300*time.Microsecond)
	ran(e.Run(5000))
	out.Service, out.Pool, out.Pairs = svc.Stats(), pool.Stats(), pool.Pairs()
	out.Now, out.NextRNG = e.Now(), rng.Uint64()
	return out
}

// FuzzServiceStreamVsEvents is the differential pin on the stream Service:
// any scenario played on it and on the retained callback-per-event source
// must leave identical counters, pool contents, clock and RNG state, and
// show the interleaved driver callbacks the same pairs at the same times.
func FuzzServiceStreamVsEvents(f *testing.F) {
	f.Add(uint64(42), []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 6, 5, 0, 2, 0, 7, 3, 4, 9})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		want := play(entangle.StartEventService, seed, data)
		got := play(entangle.StartService, seed, data)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream service diverged from the event oracle\n got %+v\nwant %+v", got, want)
		}
	})
}
