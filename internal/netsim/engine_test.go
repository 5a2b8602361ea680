package netsim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestScheduleAndRunOrder(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order %v", order)
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("final clock %v", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

// ReserveSeq(k) hands out the numbers k calls of NextSeq would and leaves
// the counter where they leave it.
func TestReserveSeqMatchesNextSeq(t *testing.T) {
	var a, b Engine
	for _, k := range []uint64{0, 1, 5, 256 + 231} {
		first := a.ReserveSeq(k)
		for i := uint64(0); i < k; i++ {
			if want := b.NextSeq(); want != first+i {
				t.Fatalf("ReserveSeq(%d): number %d is %d, NextSeq drew %d", k, i, first+i, want)
			}
		}
	}
	if x, y := a.NextSeq(), b.NextSeq(); x != y {
		t.Fatalf("after the reservations NextSeq draws %d, want %d", x, y)
	}
}

func TestClockMonotonic(t *testing.T) {
	var e Engine
	var last time.Duration
	for i := 0; i < 50; i++ {
		d := time.Duration(50-i) * time.Millisecond
		e.Schedule(d, func() {
			if e.Now() < last {
				t.Fatal("clock went backwards")
			}
			last = e.Now()
		})
	}
	e.Run(0)
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var hits int
	e.Schedule(time.Millisecond, func() {
		hits++
		e.Schedule(time.Millisecond, func() {
			hits++
		})
	})
	e.Run(0)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("clock %v", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-time.Millisecond, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5*time.Millisecond, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ScheduleAt(time.Millisecond, func() {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var hits int
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() { hits++ })
	}
	e.RunUntil(5 * time.Millisecond)
	if hits != 5 {
		t.Fatalf("hits = %d, want 5", hits)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock %v", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending %d", e.Pending())
	}
	// RunUntil advances the clock even with no events in range.
	e.RunUntil(5 * time.Millisecond) // no-op at same time
	e.Run(0)
	if hits != 10 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestRunMaxEvents(t *testing.T) {
	var e Engine
	var tick func()
	count := 0
	tick = func() {
		count++
		e.Schedule(time.Millisecond, tick) // would run forever
	}
	e.Schedule(time.Millisecond, tick)
	n := e.Run(100)
	if n != 100 || count != 100 {
		t.Fatalf("ran %d events, counted %d", n, count)
	}
}

func TestStop(t *testing.T) {
	var e Engine
	hits := 0
	e.Schedule(time.Millisecond, func() { hits++; e.Stop() })
	e.Schedule(2*time.Millisecond, func() { hits++ })
	e.Run(0)
	if hits != 1 {
		t.Fatalf("Stop did not halt the run: hits=%d", hits)
	}
	e.Run(0) // resumes
	if hits != 2 {
		t.Fatalf("resume failed: hits=%d", hits)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 100; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		e.Run(0)
	}
}

// TestFarFutureEventAfterNearOnes: an event at or past 2⁶² ns (≈ 146 y)
// behind two near ones must still run, after them. A far-future fault window
// on a serving session schedules exactly this.
func TestFarFutureEventAfterNearOnes(t *testing.T) {
	var e Engine
	var got []time.Duration
	for _, at := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 5e18} {
		e.ScheduleAt(at, func() { got = append(got, e.Now()) })
	}
	e.RunUntil(10 * time.Millisecond)
	if len(got) != 2 || e.Pending() != 1 || e.Now() != 10*time.Millisecond {
		t.Fatalf("RunUntil(10ms) ran %v, pending %d, clock %v", got, e.Pending(), e.Now())
	}
	if e.Run(0); len(got) != 3 || got[2] != 5e18 || e.Pending() != 0 {
		t.Fatalf("events ran at %v, pending %d", got, e.Pending())
	}
}

// popRecord is one event of a replay: which event, and when.
type popRecord struct {
	id int
	at time.Duration
}

// scriptNode is one event of a precomputed schedule tree, so the same tree
// replays through any engine and driver. When it fires it records itself
// and queues its children. It is queued with Schedule(delay), or, if abs is
// set, with ScheduleAt at the later of at and the clock.
type scriptNode struct {
	delay, at time.Duration
	abs       bool
	children  []int
}

// The delay grid makes simultaneous-event ties the common case; absGrid
// holds times the clock has usually passed, near ones, and ones at and past
// 2⁶² ns. From absGrid's last entry, maxFuzzNodes steps of 3 ms cannot
// carry the clock past MaxInt64.
var (
	delayGrid = []time.Duration{0, 0, time.Microsecond, time.Microsecond, 2 * time.Microsecond,
		5 * time.Microsecond, 100 * time.Microsecond, 3 * time.Millisecond}
	absGrid = []time.Duration{0, time.Microsecond, time.Millisecond, 2 * time.Millisecond,
		1<<62 - 1, 1 << 62, 5e18, math.MaxInt64 - time.Second}
)

const maxFuzzNodes = 128

// decodeScript builds a tree of up to maxNodes nodes, roots first, then
// breadth first, one byte of next per node: bits 0–2 index the delay (or,
// with bit 3 set, the absGrid time) and bits 4–5 give its 0–3 children.
func decodeScript(next func() byte, roots, maxNodes int) []scriptNode {
	script := make([]scriptNode, roots, maxNodes)
	for i := 0; i < len(script); i++ {
		b := next()
		script[i].delay, script[i].abs, script[i].at = delayGrid[b&7], b&8 != 0, absGrid[b&7]
		for k := 0; k < int(b>>4&3) && len(script) < maxNodes; k++ {
			script = append(script, scriptNode{})
			script[i].children = append(script[i].children, len(script)-1)
		}
	}
	return script
}

// randomScript is a Schedule-only tree drawn from a seeded stream.
func randomScript(seed uint64, roots, maxNodes int) []scriptNode {
	rng := xrand.New(seed, 0xca1e)
	return decodeScript(func() byte { return byte(rng.Uint64()) &^ 8 }, roots, maxNodes)
}

// A ticker adds a fixed-rate event source to a replay, recording its events
// in the same trace as the script's (under negative ids).
type ticker func(e *Engine, trace *[]popRecord)

const (
	tickInterval = time.Microsecond // on the delay grid, so ticks tie with callbacks
	tickCount    = 3000
)

// tickStream is the source as a Stream: the pending tick is a cursor, and
// each tick draws its successor's sequence number as it runs.
type tickStream struct {
	e     *Engine
	trace *[]popRecord
	at    time.Duration
	seq   uint64
	left  int
}

func streamTicker(e *Engine, trace *[]popRecord) {
	e.Attach(&tickStream{e: e, trace: trace, at: e.Now() + tickInterval, seq: e.NextSeq(), left: tickCount})
}

func (s *tickStream) Head() (time.Duration, uint64, bool) { return s.at, s.seq, s.left > 0 }

func (s *tickStream) RunBefore(at time.Duration, seq uint64) {
	for s.left > 0 && (event{at: s.at, seq: s.seq}).less(event{at: at, seq: seq}) {
		*s.trace = append(*s.trace, popRecord{id: -s.left, at: s.at})
		if s.left--; s.left > 0 {
			s.at += tickInterval
			s.seq = s.e.NextSeq()
		}
	}
}

// chainTicker is the same source as the callback chain a Stream replaces,
// one queued closure per tick: the reference a stream replay must match.
func chainTicker(e *Engine, trace *[]popRecord) {
	left := tickCount
	var tick func()
	tick = func() {
		*trace = append(*trace, popRecord{id: -left, at: e.Now()})
		if left--; left > 0 {
			e.Schedule(tickInterval, tick)
		}
	}
	e.Schedule(tickInterval, tick)
}

// runScript queues the script's roots, half before the ticker (if any) and
// half after so callbacks sit on both sides of the first tick's sequence
// number, and runs the engine dry: with Run, or with a RunUntil ladder
// first. It checks that the clock never ran backwards and returns the trace
// and the script's (id, time) calls in call order.
func runScript(t *testing.T, script []scriptNode, roots int, tk ticker, ladder bool) (trace, calls []popRecord) {
	t.Helper()
	e := NewEngine()
	var schedule func(id int)
	schedule = func(id int) {
		n := script[id]
		at := e.Now() + n.delay
		if n.abs {
			at = max(n.at, e.Now())
		}
		calls = append(calls, popRecord{id: id, at: at})
		fn := func() {
			trace = append(trace, popRecord{id: id, at: e.Now()})
			for _, c := range n.children {
				schedule(c)
			}
		}
		if n.abs {
			e.ScheduleAt(at, fn)
		} else {
			e.Schedule(n.delay, fn)
		}
	}
	for id := 0; id < roots; id++ {
		if id == roots/2 && tk != nil {
			tk(e, &trace)
		}
		schedule(id)
	}
	for k := 0; ladder && k <= 53; k++ { // 1µs << 53 ≈ 9.007e18 < MaxInt64
		e.RunUntil(time.Microsecond << k)
	}
	if e.Run(0); e.Pending() != 0 {
		t.Fatalf("pending %d after the run", e.Pending())
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].at < trace[i-1].at {
			t.Fatalf("clock went backwards: event %d at %v after %v", i, trace[i].at, trace[i-1].at)
		}
	}
	return trace, calls
}

func diffTraces(t *testing.T, what string, want, got []popRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pop %d differs: %+v vs %+v", what, i, want[i], got[i])
		}
	}
}

// TestChainStreamReplay is the Stream merge pin: a fixed-rate source
// attached as a Stream must run, among a random event tree, in exactly the
// order its callback chain runs in, ties included, under Run and under the
// stream batches a RunUntil ladder cuts between callbacks.
func TestChainStreamReplay(t *testing.T) {
	for _, tc := range []struct {
		seed          uint64
		roots, budget int
	}{{1, 10, 200}, {2, 100, 5000}, {3, 1000, 20000}, {4, 1, 50}, {7, 200, 4000}} {
		t.Run(fmt.Sprintf("seed=%d/n=%d", tc.seed, tc.budget), func(t *testing.T) {
			script := randomScript(tc.seed, tc.roots, tc.budget)
			for _, ladder := range []bool{false, true} {
				chain, _ := runScript(t, script, tc.roots, chainTicker, ladder)
				if len(chain) != len(script)+tickCount {
					t.Fatalf("chain replay ran %d events, want %d", len(chain), len(script)+tickCount)
				}
				stream, _ := runScript(t, script, tc.roots, streamTicker, ladder)
				diffTraces(t, fmt.Sprintf("chain vs stream (RunUntil ladder %v)", ladder), chain, stream)
			}
		})
	}
}

// FuzzEngineOrder pins the event queue against a brute-force sort: every
// queued callback runs exactly once, in (at, call index) order, the clock
// never decreases, and the queue ends empty. With a ticker attached, the
// Stream replay must equal the callback-chain replay event for event.
// Byte 0 sets the ticker (bit 0) and the RunUntil ladder (bit 1), byte 1
// picks 1–8 roots, the rest is decodeScript's, zeros past the end. The
// named seeds are in testdata/fuzz/FuzzEngineOrder.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (b byte) {
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			return b
		}
		flags := next()
		roots := 1 + int(next()%8)
		script := decodeScript(next, roots, maxFuzzNodes)
		tk, ladder := ticker(nil), flags&2 != 0
		if flags&1 != 0 {
			tk = chainTicker
		}
		trace, calls := runScript(t, script, roots, tk, ladder)
		ran := slices.DeleteFunc(slices.Clone(trace), func(r popRecord) bool { return r.id < 0 })
		slices.SortStableFunc(calls, func(a, b popRecord) int { return cmp.Compare(a.at, b.at) })
		diffTraces(t, "executed vs sorted by (at, call index)", calls, ran)
		if tk != nil {
			stream, _ := runScript(t, script, roots, streamTicker, ladder)
			diffTraces(t, "chain vs stream", trace, stream)
		}
	})
}

// TestStreamSlotContract pins the rest of the Stream contract: events a
// stream holds are invisible to Pending, Step and Run count them one by one,
// the slot holds one stream, and a stream event may not queue a callback.
func TestStreamSlotContract(t *testing.T) {
	e := NewEngine()
	var trace []popRecord
	streamTicker(e, &trace)
	e.Schedule(tickInterval, func() {}) // ties with the first tick, larger seq
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1 (stream events are not queued)", e.Pending())
	}
	if !e.Step() || len(trace) != 1 || e.Now() != tickInterval || e.Pending() != 1 {
		t.Fatalf("first step should run the tick alone: trace %v, now %v, pending %d", trace, e.Now(), e.Pending())
	}
	if n := e.Run(3); n != 3 || len(trace) != 3 || e.Pending() != 0 {
		t.Fatalf("Run(3) ran %d events, %d ticks so far, pending %d", n, len(trace), e.Pending())
	}
	if n := e.Run(0); n != tickCount-3 || e.Now() != tickCount*tickInterval {
		t.Fatalf("drain ran %d events to %v", n, e.Now())
	}
	if e.Step() {
		t.Fatal("step past the stream's last event")
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", what)
			}
		}()
		fn()
	}
	mustPanic("second Attach", func() { streamTicker(e, &trace) })
	bad := NewEngine()
	bad.Attach(schedulingStream{bad})
	mustPanic("Schedule inside a stream event", func() { bad.RunUntil(time.Second) })
}

// schedulingStream breaks the contract by queueing a callback from an event.
type schedulingStream struct{ e *Engine }

func (s schedulingStream) Head() (time.Duration, uint64, bool) { return 0, 0, true }
func (s schedulingStream) RunBefore(time.Duration, uint64)     { s.e.Schedule(0, func() {}) }

// TestSparseFarFutureOrder: a few events scattered over thirteen orders of
// magnitude of delay must still pop in order.
func TestSparseFarFutureOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{time.Hour, time.Nanosecond, 30 * time.Minute,
		24 * time.Hour, 5 * time.Microsecond, time.Second} {
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run(0)
	want := []time.Duration{time.Nanosecond, 5 * time.Microsecond, time.Second,
		30 * time.Minute, time.Hour, 24 * time.Hour}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestChurnOrder fills the queue with 50 000 events, drains it checking
// global ordering, and refills it after the drain.
func TestChurnOrder(t *testing.T) {
	e := NewEngine()
	rng := xrand.New(11, 0xc0ffee)
	const n = 50_000
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(rng.IntN(1_000_000))*time.Nanosecond, func() {})
	}
	if e.Pending() != n {
		t.Fatalf("pending %d, want %d", e.Pending(), n)
	}
	for last := time.Duration(0); e.Step(); last = e.Now() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
	e.Schedule(time.Millisecond, func() {})
	if n := e.Run(0); n != 1 {
		t.Fatalf("post-drain refill ran %d events", n)
	}
}

// benchEngineHold measures the hold model: n pending events, each pop
// schedules a successor at a fresh pseudo-random offset, so the queue holds
// n events throughout. All n chains share one self-rescheduling closure
// over one xorshift64 stream, so the timed region allocates nothing, every
// timestamp is distinct, and the callback stays L1-resident.
func benchEngineHold(b *testing.B, n int) {
	b.ReportAllocs()
	e := NewEngine()
	s := xrand.New(1, 99).Uint64() | 1
	next := func() time.Duration {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return time.Duration((s >> 32) * 2_000_000 >> 32)
	}
	var self func()
	self = func() { e.Schedule(next(), self) }
	for i := 0; i < n; i++ {
		e.Schedule(next(), self)
	}
	// Two turnovers reach the steady-state spread of timestamps; the forced
	// collection keeps an earlier run's garbage out of the timed region.
	e.Run(2 * n)
	runtime.GC()
	b.ResetTimer()
	e.Run(b.N)
}

func BenchmarkEngineHoldN1e2(b *testing.B) { benchEngineHold(b, 100) }
func BenchmarkEngineHoldN1e4(b *testing.B) { benchEngineHold(b, 10_000) }
func BenchmarkEngineHoldN1e5(b *testing.B) { benchEngineHold(b, 100_000) }
