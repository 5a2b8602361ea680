package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	g := r.Gauge("util")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge %v, want 0.75", g.Value())
	}
	tm := r.Timer("solve")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(4 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 6*time.Millisecond {
		t.Fatalf("timer count=%d total=%v", tm.Count(), tm.Total())
	}
	if tm.Mean() != 3*time.Millisecond || tm.Max() != 4*time.Millisecond {
		t.Fatalf("timer mean=%v max=%v", tm.Mean(), tm.Max())
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a", "k", "v") != r.Counter("a", "k", "v") {
		t.Fatal("same name+labels must return the same counter")
	}
	if r.Counter("a") == r.Counter("a", "k", "v") {
		t.Fatal("labels must distinguish instruments")
	}
}

func TestKeyRendering(t *testing.T) {
	if got := Key("hits"); got != "hits" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("hits", "solver", "classical", "tier", "1"); got != "hits{solver=classical,tier=1}" {
		t.Fatalf("Key = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	Key("hits", "solver")
}

func TestSnapshotOrderedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_last").Add(1)
	r.Counter("a_first").Add(2)
	r.Gauge("m_gauge").Set(3)
	r.Timer("t_timer").Observe(time.Microsecond)
	snap := r.Snapshot()
	if len(snap) != 7 { // 2 counters + 1 gauge + 4 timer entries
		t.Fatalf("snapshot has %d entries: %v", len(snap), snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Key, snap[i].Key)
		}
	}
	if v, ok := r.Get("a_first"); !ok || v != 2 {
		t.Fatalf("Get(a_first) = %v, %v", v, ok)
	}
	if v, ok := r.Get("t_timer_count"); !ok || v != 1 {
		t.Fatalf("Get(t_timer_count) = %v, %v", v, ok)
	}
}

func TestResetKeepsInstrumentPointersValid(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Add(10)
	r.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter survived reset with %d", c.Value())
	}
	c.Inc() // the old pointer must still feed the registry
	if v, _ := r.Get("events"); v != 1 {
		t.Fatalf("post-reset increments lost: %v", v)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	tm := r.Timer("laps")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				tm.Observe(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || tm.Count() != 8000 {
		t.Fatalf("lost updates: counter %d timer %d", c.Value(), tm.Count())
	}
}

func TestGetResolvesEveryInstrumentKind(t *testing.T) {
	r := NewRegistry()
	r.Counter("decisions_total", "session", "s1").Add(41)
	r.Gauge("level").Set(2.5)
	tm := r.Timer("decide")
	tm.Observe(10 * time.Nanosecond)
	tm.Observe(30 * time.Nanosecond)

	cases := map[string]float64{
		"decisions_total{session=s1}": 41,
		"level":                       2.5,
		"decide_count":                2,
		"decide_total_ns":             40,
		"decide_mean_ns":              20,
		"decide_max_ns":               30,
	}
	for key, want := range cases {
		got, ok := r.Get(key)
		if !ok || got != want {
			t.Fatalf("Get(%q) = %v, %v; want %v, true", key, got, ok, want)
		}
	}
	for _, key := range []string{"absent", "decide", "decide_min_ns", "level_count"} {
		if _, ok := r.Get(key); ok {
			t.Fatalf("Get(%q) should be absent", key)
		}
	}
	// Every key a Snapshot renders must resolve to the same value via Get.
	for _, kv := range r.Snapshot() {
		got, ok := r.Get(kv.Key)
		if !ok || got != kv.Value {
			t.Fatalf("Get(%q) = %v, %v; snapshot has %v", kv.Key, got, ok, kv.Value)
		}
	}
}

func TestGetDoesNotBuildSnapshot(t *testing.T) {
	// Regression for the pre-fix Get, which built and sorted a full
	// Snapshot per lookup — O(instruments·log) work and a fresh slice on a
	// per-request path. A direct map lookup allocates nothing.
	r := NewRegistry()
	for i := 0; i < 256; i++ {
		r.Counter("c", "i", fmt.Sprint(i)).Inc()
		r.Timer("t", "i", fmt.Sprint(i)).Observe(time.Nanosecond)
	}
	key := Key("t", "i", "200") + "_mean_ns"
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := r.Get(key); !ok {
			t.Fatal("key missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %v objects per lookup; want 0", allocs)
	}
}

func TestConcurrentSnapshotResetVsUpdates(t *testing.T) {
	// The qcoordd daemon snapshots and resets the registry while request
	// goroutines observe timers and bump counters; run the full matrix
	// under the race detector.
	r := NewRegistry()
	c := r.Counter("reqs")
	g := r.Gauge("depth")
	tm := r.Timer("decide")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				tm.Observe(time.Duration(i) * time.Nanosecond)
				// Concurrent instrument creation races the snapshot's map
				// iteration unless the registry lock covers both.
				r.Counter("dyn", "w", fmt.Sprint(w)).Inc()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		for _, kv := range snap {
			if _, ok := r.Get(kv.Key); !ok {
				t.Errorf("snapshot key %q not resolvable", kv.Key)
			}
		}
		if i%10 == 0 {
			r.Reset()
		}
	}
	close(stop)
	wg.Wait()
}

func TestArtifactRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("solvecache_hits", "solver", "quantum").Add(7)
	a := NewArtifact("test-tool")
	a.Seed = 42
	a.Config = map[string]any{"scale": 1.0}
	a.Experiments = []ExperimentMetrics{{ID: "E1", WallMS: 1.5}}
	a.Metrics = r.Snapshot()
	a.Series = []TimeSeries{{Name: "queue", X: []float64{0, 1}, Y: []float64{0, 2}}}

	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Tool != "test-tool" || back.Seed != 42 {
		t.Fatalf("provenance lost: %+v", back)
	}
	if len(back.Metrics) != 1 || back.Metrics[0].Key != "solvecache_hits{solver=quantum}" || back.Metrics[0].Value != 7 {
		t.Fatalf("metrics lost: %+v", back.Metrics)
	}
	if len(back.Series) != 1 || back.Series[0].Y[1] != 2 {
		t.Fatalf("series lost: %+v", back.Series)
	}
	if back.GoVersion == "" || back.GitDescribe == "" {
		t.Fatalf("missing build provenance: %+v", back)
	}
}

func TestObserveNMatchesObserveEach(t *testing.T) {
	// One ObserveN per batch must leave the timer exactly where one Observe
	// per element leaves it — including Max when a later batch's largest is
	// below an earlier one's, and when the batch carries no max at all.
	batches := [][]time.Duration{
		{5, 90, 3},
		{7, 7},
		{},
		{120},
		{0, 0},
	}
	var each, batched Timer
	for _, b := range batches {
		var sum, longest time.Duration
		for _, d := range b {
			each.Observe(d)
			sum += d
			longest = max(longest, d)
		}
		batched.ObserveN(sum, int64(len(b)), longest)
		if batched.Count() != each.Count() || batched.Total() != each.Total() || batched.Max() != each.Max() {
			t.Fatalf("after %v: batched count/total/max %d/%v/%v, per-element %d/%v/%v", b,
				batched.Count(), batched.Total(), batched.Max(), each.Count(), each.Total(), each.Max())
		}
	}
	// A sum with unknown parts (longest 0) moves count and total only.
	batched.ObserveN(1000, 4, 0)
	if batched.Count() != each.Count()+4 || batched.Total() != each.Total()+1000 || batched.Max() != each.Max() {
		t.Fatalf("max-less batch moved max or lost the sum: %d/%v/%v", batched.Count(), batched.Total(), batched.Max())
	}
}
