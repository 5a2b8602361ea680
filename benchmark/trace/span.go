package main

import "time"

// sampleEvery is the span sampling rate: one request in this many keeps its
// spans. Counts are never sampled.
const sampleEvery = 64

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent indexes the span that caused this one (the same
// request's span one onion depth out, or the enclosing span of the same
// depth), -1 for none. Times are host nanoseconds since the depth's replay
// began: depths are separate replays, so only durations compare across them.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Depth   int    `json:"depth"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps the spans of one traced pass in memory, and the exact counts
// taken at the same boundaries; both are written to trace.json at exit.
type tracer struct {
	Spans  []span           `json:"spans"`
	Counts map[string]int64 `json:"counts"`

	depth  int
	origin time.Time
	// outer maps a request to its span one depth out; inner collects the
	// current depth's for the next.
	outer, inner map[int]int
}

func newTracer() *tracer {
	return &tracer{Counts: make(map[string]int64), inner: make(map[int]int)}
}

// enter starts a new onion depth: spans recorded from here on are children
// of the previous depth's span for the same request.
func (t *tracer) enter(depth int) {
	if t == nil {
		return
	}
	t.depth, t.origin = depth, time.Now()
	t.outer, t.inner = t.inner, make(map[int]int)
}

// begin opens the depth's span for request req, if req is sampled, and
// returns its index (-1 otherwise). A nil tracer samples nothing: that is
// the untraced replay the overhead is measured against.
func (t *tracer) begin(layer, name string, req int) int {
	if t == nil || req%sampleEvery != 0 {
		return -1
	}
	parent := -1
	if p, ok := t.outer[req]; ok {
		parent = p
	}
	t.inner[req] = len(t.Spans)
	return t.open(layer, name, req, parent)
}

// child opens a span nested inside span parent of the same depth.
func (t *tracer) child(layer, name string, req, parent int) int {
	if parent < 0 {
		return -1
	}
	return t.open(layer, name, req, parent)
}

func (t *tracer) open(layer, name string, req, parent int) int {
	t.Spans = append(t.Spans, span{Name: name, Layer: layer, Depth: t.depth, Parent: parent, Req: req,
		StartNS: time.Since(t.origin).Nanoseconds()})
	return len(t.Spans) - 1
}

// end closes span i (a no-op for -1).
func (t *tracer) end(i int) {
	if i >= 0 {
		t.Spans[i].EndNS = time.Since(t.origin).Nanoseconds()
	}
}

// count adds n to an exact counter.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.Counts[name] += n
	}
}
