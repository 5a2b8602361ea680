// Package netsim is a small discrete-event simulator with the fiber model
// behind the paper's timing arguments (Figure 2): a classical message
// crossing a link incurs speed-of-light propagation delay
// (PropagationDelay), while decisions backed by pre-shared entangled qubits
// complete locally. The engine drives the entangled-pair supply chain and is
// deterministic: identical schedules replay identically.
//
// The engine has two kinds of pending event, both in one (at, seq) order.
// One-shot callbacks (fault windows opening and closing) wait in a binary
// heap; a handful are pending at a time. The one Stream slot holds a
// self-rescheduling event source (the entangled-pair supply) that keeps its
// own pending events and is merged with the heap's head, so a fixed-rate
// source costs no queue traffic at all.
package netsim

import (
	"fmt"
	"math"
	"time"
)

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now     time.Duration
	queue   eventQueue
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

// eventQueue is a binary min-heap of events in (at, seq) order.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() (event, bool) {
	h := *q
	n := len(h) - 1
	if n < 0 {
		return event{}, false
	}
	top, last := h[0], h[n]
	h[n] = event{} // the backing array keeps no reference to a moved closure
	h = h[:n]
	// Sift the last event down from the root into the hole top left.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top, true
}

// peek returns the head's key.
func (q eventQueue) peek() (at time.Duration, seq uint64, ok bool) {
	if len(q) == 0 {
		return 0, 0, false
	}
	return q[0].at, q[0].seq, true
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

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
	e.queue.push(event{at: at, seq: e.NextSeq(), fn: fn})
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
	ev, ok := e.queue.pop()
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

// stepStream runs the stream's head event if it sorts before the queue's.
func (e *Engine) stepStream() bool {
	at, seq, ok := e.stream.Head()
	if !ok {
		return false
	}
	if qat, qseq, qok := e.queue.peek(); qok && !(event{at: at, seq: seq}).less(event{at: qat, seq: qseq}) {
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
		at, seq, ok := e.queue.peek()
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
