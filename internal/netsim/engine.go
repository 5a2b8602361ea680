// Package netsim is a small discrete-event simulator with the fiber model
// behind the paper's timing arguments (Figure 2): a classical message
// crossing a link incurs speed-of-light propagation delay
// (PropagationDelay), while decisions backed by pre-shared entangled qubits
// complete locally. The engine drives the entangled-pair supply chain and is
// deterministic: identical schedules replay identically.
//
// The Engine runs on one scheduler, a calendar queue (O(1) amortized, built
// for 10⁵–10⁶ pending events), ordering events by (at, seq). The binary heap
// it replaced lives in export_test.go as the differential-test oracle,
// plugged in through the unexported scheduler interface.
//
// Beside the queue of one-shot callbacks the engine has one Stream slot: a
// self-rescheduling event source (the entangled-pair supply) that keeps its
// own pending events and is merged with the queue head in the same
// (at, seq) order, so a fixed-rate source costs no queue traffic at all.
package netsim

import (
	"fmt"
	"math"
	"time"
)

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now     time.Duration
	sched   scheduler
	cal     *calendarQueue // non-nil unless a test plugged in its oracle: devirtualized hot path
	seq     uint64
	stopped bool

	stream   Stream
	inStream bool // a stream batch is running: Schedule would invalidate its bound
}

// Stream is an event source that holds its own pending events instead of
// queueing a callback per event. Its events live in the engine's (at, seq)
// total order — every one carries a sequence number drawn from NextSeq at
// the moment the equivalent Schedule call would have drawn it — and the
// engine runs them merged with the queued callbacks, so replacing a
// callback chain by a stream changes no execution order.
//
// Stream events must not schedule callbacks on the engine (Schedule panics
// during a batch): the engine computes a batch's bound once, from the queue
// head, and a callback queued mid-batch could sort inside it. Nor do they
// read Now: RunUntil moves the clock past a batch, not through it, and a
// stream knows its own events' times.
type Stream interface {
	// Head reports the stream's next event; ok is false while it has none.
	Head() (at time.Duration, seq uint64, ok bool)
	// RunBefore executes, in order, every stream event that sorts strictly
	// before (at, seq).
	RunBefore(at time.Duration, seq uint64)
}

// Attach installs the engine's stream. There is one slot: a second Attach
// panics.
func (e *Engine) Attach(s Stream) {
	if e.stream != nil {
		panic("netsim: engine already has a stream attached")
	}
	e.stream = s
}

// NextSeq draws the next scheduling sequence number — what Schedule stamps
// on a queued callback. A Stream calls it where the callback chain it
// replaces would have called Schedule.
func (e *Engine) NextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// ReserveSeq draws k consecutive sequence numbers at once and returns the
// first: the same numbers k calls of NextSeq would return, for a Stream that
// knows how many it will stamp in a batch.
func (e *Engine) ReserveSeq(k uint64) uint64 {
	s := e.seq
	e.seq += k
	return s
}

// NewEngine returns a ready engine (equivalent to a zero-value Engine).
func NewEngine() *Engine { return &Engine{} }

type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// less is the engine-wide total order on events: time first, scheduling
// sequence second. seq is unique, so the order has no further ties.
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// scheduler is the priority-queue contract, and the seam the test oracle
// plugs into: push accepts any event at or after the last popped time, pop
// returns events in (at, seq) order, and peek exposes the next event's key
// without dequeuing.
type scheduler interface {
	push(event)
	pop() (event, bool)
	peek() (at time.Duration, seq uint64, ok bool)
	len() int
}

// scheduler returns the engine's event queue, installing the calendar queue
// on first use so the zero value stays ready.
func (e *Engine) scheduler() scheduler {
	if e.sched == nil {
		e.cal = newCalendarQueue()
		e.sched = e.cal
	}
	return e.sched
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued callbacks. Events a Stream holds are
// not counted: only the stream knows them.
func (e *Engine) Pending() int {
	if e.sched == nil {
		return 0
	}
	return e.sched.len()
}

// Schedule queues fn to run delay after the current simulated time.
// Negative delays panic: the simulator enforces causality.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("netsim: scheduling into the past (delay %v)", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn at an absolute simulated time, which must not precede
// the current time.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("netsim: scheduling into the past (at %v, now %v)", at, e.now))
	}
	if e.inStream {
		panic("netsim: a Stream event scheduled a callback")
	}
	ev := event{at: at, seq: e.NextSeq(), fn: fn}
	// Static dispatch for the default scheduler: the push/pop pair runs once
	// per simulated event, and the interface call is measurable at 10⁵+
	// events per simulated second.
	if e.cal != nil {
		e.cal.push(ev)
		return
	}
	e.scheduler().push(ev)
}

// Step executes the next event — the stream's head or the queue's,
// whichever sorts first — advancing the clock. It returns false when no
// events remain.
func (e *Engine) Step() bool {
	if e.stream != nil && e.stepStream() {
		return true
	}
	return e.stepQueue()
}

// stepQueue executes the queue's head callback.
func (e *Engine) stepQueue() bool {
	var ev event
	var ok bool
	if e.cal != nil {
		ev, ok = e.cal.pop()
	} else {
		ev, ok = e.scheduler().pop()
	}
	if !ok {
		return false
	}
	if ev.at < e.now {
		panic("netsim: causality violation — event timestamp before current time")
	}
	e.now = ev.at
	ev.fn()
	return true
}

// peek returns the queue head's key.
func (e *Engine) peek() (time.Duration, uint64, bool) {
	if e.cal != nil {
		return e.cal.peek()
	}
	return e.scheduler().peek()
}

// stepStream runs the stream's head event if it sorts before the queue's.
func (e *Engine) stepStream() bool {
	at, seq, ok := e.stream.Head()
	if !ok {
		return false
	}
	if qat, qseq, qok := e.peek(); qok && !(event{at: at, seq: seq}).less(event{at: qat, seq: qseq}) {
		return false
	}
	if at < e.now {
		panic("netsim: causality violation — stream event timestamp before current time")
	}
	e.now = at
	// Sequence numbers are unique, so (at, seq+1) bounds exactly one event.
	e.runStream(at, seq+1)
	return true
}

// runStream executes the stream's events that sort before (at, seq).
func (e *Engine) runStream(at time.Duration, seq uint64) {
	e.inStream = true
	e.stream.RunBefore(at, seq)
	e.inStream = false
}

// Run executes events until none remain or Stop is called. maxEvents bounds
// runaway simulations (0 means no bound).
func (e *Engine) Run(maxEvents int) int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// RunUntil executes events with timestamps ≤ t, then sets the clock to t.
// Between two queued callbacks the stream runs as one batch: with no
// callback inside the horizon (a supply chain with no fault script) the
// whole catch-up is a single RunBefore call.
func (e *Engine) RunUntil(t time.Duration) {
	e.stopped = false
	for !e.stopped {
		at, seq, ok := e.peek()
		ok = ok && at <= t
		if e.stream != nil {
			if ok {
				e.runStream(at, seq)
			} else {
				e.runStream(t, math.MaxUint64) // every event stamped ≤ t
			}
		}
		if !ok {
			break
		}
		e.stepQueue()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Every schedules fn at now+interval, then repeatedly every interval, until
// the returned cancel function is called: one queued callback per period,
// for periodic drivers (demand generators, samplers). The entangled-pair
// source, which ticks 10⁵–10⁶ times a simulated second, is a Stream instead.
func (e *Engine) Every(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic("netsim: Every needs a positive interval")
	}
	active := true
	var tick func()
	tick = func() {
		if !active {
			return
		}
		fn()
		if active {
			e.Schedule(interval, tick)
		}
	}
	e.Schedule(interval, tick)
	return func() { active = false }
}
