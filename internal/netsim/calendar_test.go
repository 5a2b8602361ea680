package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/xrand"
)

// popRecord is one executed event in a replay: which event ran and when.
type popRecord struct {
	id int
	at time.Duration
}

// scriptNode is one event in a precomputed random schedule tree: when the
// event fires it appends its id to the trace and schedules its children at
// the given (non-negative) delays. Precomputing the tree lets the exact
// same stream replay through any engine.
type scriptNode struct {
	delay    time.Duration
	children []int
}

// buildScript generates a random event tree with heavy timestamp collisions:
// delays are drawn from a small discrete grid (including zero), so
// simultaneous-event FIFO ties are the common case, not the corner case.
func buildScript(seed uint64, roots, maxNodes int) []scriptNode {
	rng := xrand.New(seed, 0xca1e)
	grid := []time.Duration{0, 0, time.Microsecond, time.Microsecond, 2 * time.Microsecond,
		5 * time.Microsecond, 100 * time.Microsecond, 3 * time.Millisecond}
	nodes := make([]scriptNode, roots, maxNodes)
	for i := range nodes {
		nodes[i].delay = grid[rng.IntN(len(grid))]
	}
	// Breadth-first expansion: each processed node spawns 0–2 children
	// until the budget runs out.
	for i := 0; i < len(nodes) && len(nodes) < maxNodes; i++ {
		kids := rng.IntN(3)
		for k := 0; k < kids && len(nodes) < maxNodes; k++ {
			nodes = append(nodes, scriptNode{delay: grid[rng.IntN(len(grid))]})
			nodes[i].children = append(nodes[i].children, len(nodes)-1)
		}
	}
	return nodes
}

// A ticker adds a fixed-rate event source to a replay, recording its events
// in the same trace as the script's (under negative ids).
type ticker func(e *Engine, trace *[]popRecord)

const (
	tickInterval = time.Microsecond // on the script's delay grid, so ticks tie with callbacks
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

// chainTicker is the same source as the callback chain a Stream replaces:
// one queued closure per tick. It is the reference the stream replays must
// reproduce, on either scheduler.
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

// load starts the ticker (if any) and schedules the script's roots; the
// returned trace fills as the engine runs.
func load(e *Engine, script []scriptNode, roots int, tk ticker) *[]popRecord {
	trace := new([]popRecord)
	var schedule func(id int)
	schedule = func(id int) {
		e.Schedule(script[id].delay, func() {
			*trace = append(*trace, popRecord{id: id, at: e.Now()})
			for _, c := range script[id].children {
				schedule(c)
			}
		})
	}
	// Half the roots go in before the ticker and half after, so callbacks
	// sit on both sides of the first tick's sequence number.
	for id := 0; id < roots/2; id++ {
		schedule(id)
	}
	if tk != nil {
		tk(e, trace)
	}
	for id := roots / 2; id < roots; id++ {
		schedule(id)
	}
	return trace
}

// replay runs the script (and ticker) to completion, returning the executed
// (id, time) sequence.
func replay(e *Engine, script []scriptNode, roots int, tk ticker) []popRecord {
	trace := load(e, script, roots, tk)
	e.Run(0)
	return *trace
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

// TestCalendarHeapDifferential is the scheduler-equivalence pin: identical
// scripted event streams replayed through the heap engine and the
// calendar-queue engine must produce byte-identical pop order, including
// simultaneous-event FIFO ties (the zero-delay grid makes those plentiful).
// With a fixed-rate source in the mix, both schedulers must also merge it as
// a Stream into exactly the order its callback chain would have run in.
func TestCalendarHeapDifferential(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		roots  int
		budget int
	}{
		{seed: 1, roots: 10, budget: 200},
		{seed: 2, roots: 100, budget: 5000},
		{seed: 3, roots: 1000, budget: 20000}, // crosses several resize thresholds
		{seed: 4, roots: 1, budget: 50},
	} {
		t.Run(fmt.Sprintf("seed=%d/n=%d", tc.seed, tc.budget), func(t *testing.T) {
			script := buildScript(tc.seed, tc.roots, tc.budget)
			diffTraces(t, "heap vs calendar", replay(NewHeapEngine(), script, tc.roots, nil),
				replay(NewEngine(), script, tc.roots, nil))
			chain := replay(NewHeapEngine(), script, tc.roots, chainTicker)
			if len(chain) != len(script)+tickCount {
				t.Fatalf("chain replay ran %d events, want %d", len(chain), len(script)+tickCount)
			}
			diffTraces(t, "chain vs heap+stream", chain, replay(NewHeapEngine(), script, tc.roots, streamTicker))
			diffTraces(t, "chain vs calendar+stream", chain, replay(NewEngine(), script, tc.roots, streamTicker))
		})
	}
}

// TestCalendarHeapDifferentialRunUntil replays the same stream through both
// engines in bounded RunUntil increments, checking that cursor bookkeeping
// across partial drains — and the stream batches RunUntil cuts between
// callbacks — cannot change the order.
func TestCalendarHeapDifferentialRunUntil(t *testing.T) {
	script := buildScript(7, 200, 4000)
	drive := func(e *Engine, tk ticker) []popRecord {
		trace := load(e, script, 200, tk)
		for step := time.Microsecond; len(*trace) < len(script)+tickCount; step *= 2 {
			e.RunUntil(e.Now() + step)
		}
		return *trace
	}
	chain := drive(NewHeapEngine(), chainTicker)
	diffTraces(t, "chain heap vs calendar", chain, drive(NewEngine(), chainTicker))
	diffTraces(t, "chain vs heap+stream", chain, drive(NewHeapEngine(), streamTicker))
	diffTraces(t, "chain vs calendar+stream", chain, drive(NewEngine(), streamTicker))
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

// TestCalendarSparseFarFuture exercises the direct-search fallback: a few
// events scattered over a span vastly wider than one calendar year must
// still pop in order.
func TestCalendarSparseFarFuture(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	delays := []time.Duration{time.Hour, time.Nanosecond, 30 * time.Minute,
		24 * time.Hour, 5 * time.Microsecond, time.Second}
	for _, d := range delays {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run(0)
	want := []time.Duration{time.Nanosecond, 5 * time.Microsecond, time.Second,
		30 * time.Minute, time.Hour, 24 * time.Hour}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestCalendarResizeChurn pushes the queue through several grow/shrink
// cycles and checks global ordering plus the pending count at every step.
func TestCalendarResizeChurn(t *testing.T) {
	e := NewEngine()
	rng := xrand.New(11, 0xc0ffee)
	const n = 50_000
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(rng.IntN(1_000_000))*time.Nanosecond, func() {})
	}
	if e.Pending() != n {
		t.Fatalf("pending %d, want %d", e.Pending(), n)
	}
	last := time.Duration(-1)
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
	// Refill after a full drain: the cursor must re-seek cleanly.
	e.Schedule(time.Millisecond, func() {})
	if n := e.Run(0); n != 1 {
		t.Fatalf("post-drain refill ran %d events", n)
	}
}

// benchEngineChurn measures the classic hold model: N pending events, each
// pop schedules a successor at a fresh pseudo-random offset, so the queue
// holds N events throughout — the steady state of an N-endpoint simulation.
// All N chains share ONE self-rescheduling closure over one xorshift64
// stream: the timed region allocates nothing, every timestamp is distinct
// (a shared delay table indexed with a common stride had made thousands of
// chains byte-identical, collapsing them into single calendar buckets), and
// the callback stays L1-resident — per-chain closures would add a second
// random memory access per event that lands additively on both engines and
// compresses the reported ratio without measuring either scheduler.
func benchEngineChurn(b *testing.B, mk func() *Engine, n int) {
	b.ReportAllocs()
	e := mk()
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
	// Two full turnovers before the clock starts: the first revolutions after
	// the queue's final growth resize warm up bucket overflow capacity (a
	// one-time allocation transient), and steady state is the claim. The
	// forced collection clears any previous run's garbage, so a mark phase
	// it triggered cannot bill its write barriers to this engine.
	e.Run(2 * n)
	runtime.GC()
	b.ResetTimer()
	e.Run(b.N)
}

func BenchmarkEngineHeapN1e2(b *testing.B)     { benchEngineChurn(b, NewHeapEngine, 100) }
func BenchmarkEngineHeapN1e4(b *testing.B)     { benchEngineChurn(b, NewHeapEngine, 10_000) }
func BenchmarkEngineHeapN1e5(b *testing.B)     { benchEngineChurn(b, NewHeapEngine, 100_000) }
func BenchmarkEngineCalendarN1e2(b *testing.B) { benchEngineChurn(b, NewEngine, 100) }
func BenchmarkEngineCalendarN1e4(b *testing.B) { benchEngineChurn(b, NewEngine, 10_000) }
func BenchmarkEngineCalendarN1e5(b *testing.B) { benchEngineChurn(b, NewEngine, 100_000) }
