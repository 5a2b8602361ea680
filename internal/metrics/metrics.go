// Package metrics is the repository's allocation-light observability layer:
// atomic counters, gauges and timers collected in a labeled registry whose
// Snapshot() renders ordered key/value pairs for machine-readable run
// artifacts (cmd/repro -metrics, qcoordd -metrics-out).
//
// Instrumented code fetches its instruments once (package init or
// constructor) and updates them with single atomic operations, so the
// decide path and the solve-cache lookup pay one atomic add per event and
// zero allocations. Each serve.Server counts into a registry of its own;
// the process-wide Default() holds the games solve cache's counters. The
// batch libraries keep their counts in the values they return instead.
// Instrumentation never touches any RNG stream: enabling or reading metrics
// cannot change simulation results.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any batch size accumulated locally first).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float value, safe for concurrent use.
// The zero value reads as 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates observed durations: count, total and max. Mean is
// derived. Safe for concurrent use; the zero value is ready.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Observe folds one duration into the timer.
func (t *Timer) Observe(d time.Duration) { t.ObserveN(d, 1, d) }

// ObserveN folds n observations whose summed duration is total and whose
// largest is longest into the timer with two atomic adds and, only when
// longest raises the recorded maximum, one compare-and-swap — a batch pays
// one ObserveN instead of one Observe per round, and Count, Total, Mean and
// Max read exactly as if each had been observed alone. A caller that knows
// the batch's sum but not its parts passes longest 0, which leaves Max to
// the observations that do carry one.
func (t *Timer) ObserveN(total time.Duration, n int64, longest time.Duration) {
	if n <= 0 {
		return
	}
	t.count.Add(n)
	t.total.Add(int64(total))
	for {
		cur := t.max.Load()
		if int64(longest) <= cur || t.max.CompareAndSwap(cur, int64(longest)) {
			return
		}
	}
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the summed duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.total.Load()) }

// Max returns the largest single observation.
func (t *Timer) Max() time.Duration { return time.Duration(t.max.Load()) }

// Mean returns the average observation (0 when empty).
func (t *Timer) Mean() time.Duration {
	n := t.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(t.total.Load() / n)
}

// KV is one snapshot entry. Values are float64 so counters, gauges and
// timer-derived quantities share one artifact schema.
type KV struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// AppendTimer appends a timer's four snapshot entries — name_count,
// name_total_ns, name_mean_ns and name_max_ns — for count observations
// summing to total, the largest of them longest. Snapshot expands every
// registry timer through it; a caller that keeps a timer's parts itself
// renders them with it under the same keys.
func AppendTimer(out []KV, name string, count int64, total, longest time.Duration) []KV {
	var mean time.Duration
	if count > 0 {
		mean = total / time.Duration(count)
	}
	return append(out,
		KV{Key: name + "_count", Value: float64(count)},
		KV{Key: name + "_total_ns", Value: float64(total)},
		KV{Key: name + "_mean_ns", Value: float64(mean)},
		KV{Key: name + "_max_ns", Value: float64(longest)})
}

// Registry is a labeled instrument store. Instruments are created on first
// request and live for the registry's lifetime; request-time is the only
// synchronized path, so callers should fetch instruments once and reuse
// them rather than re-resolving names per event.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// defaultRegistry is the process-wide registry; cmd/repro snapshots it for
// its -metrics artifact.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Key renders an instrument name with optional label pairs as
// name{k1=v1,k2=v2}. Labels must come in key/value pairs and are emitted
// in the order given, so a fixed call site always yields a fixed key.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %q: %v", name, labels))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Timer returns (creating if needed) the timer for name+labels.
func (r *Registry) Timer(name string, labels ...string) *Timer {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[k]
	if !ok {
		t = &Timer{}
		r.timers[k] = t
	}
	return t
}

// Snapshot returns every instrument's current value as key-sorted pairs.
// Timers expand into _count, _total_ns, _mean_ns and _max_ns entries so
// the artifact stays a flat list. Concurrent updates during a snapshot
// yield each instrument's value at its own read point (no cross-instrument
// atomicity), which is all run artifacts written after the work need.
func (r *Registry) Snapshot() []KV {
	r.mu.Lock()
	out := make([]KV, 0, len(r.counters)+len(r.gauges)+4*len(r.timers))
	for k, c := range r.counters {
		out = append(out, KV{Key: k, Value: float64(c.Value())})
	}
	for k, g := range r.gauges {
		out = append(out, KV{Key: k, Value: g.Value()})
	}
	for k, t := range r.timers {
		out = AppendTimer(out, k, t.Count(), t.Total(), t.Max())
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Get returns the snapshot value for a key (timers: use the expanded
// suffixed keys), or false when absent. It resolves the key with direct map
// lookups — counters, then gauges, then the four timer expansions — instead
// of building and sorting a full Snapshot per call, so per-request paths
// (the qcoordd health endpoint) can use it without O(instruments·log) work.
func (r *Registry) Get(key string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return float64(c.Value()), true
	}
	if g, ok := r.gauges[key]; ok {
		return g.Value(), true
	}
	if base, ok := strings.CutSuffix(key, "_count"); ok {
		if t, ok := r.timers[base]; ok {
			return float64(t.Count()), true
		}
	}
	if base, ok := strings.CutSuffix(key, "_total_ns"); ok {
		if t, ok := r.timers[base]; ok {
			return float64(t.Total()), true
		}
	}
	if base, ok := strings.CutSuffix(key, "_mean_ns"); ok {
		if t, ok := r.timers[base]; ok {
			return float64(t.Mean()), true
		}
	}
	if base, ok := strings.CutSuffix(key, "_max_ns"); ok {
		if t, ok := r.timers[base]; ok {
			return float64(t.Max()), true
		}
	}
	return 0, false
}
