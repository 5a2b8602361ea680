package workload

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestBernoulliMix(t *testing.T) {
	g := Bernoulli{PC: 0.5}
	rng := xrand.New(50, 1)
	c := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		task := g.Next(0, rng)
		if task.Type == TypeC {
			c++
			if task.Class != 1 {
				t.Fatal("type-C must map to class 1")
			}
		} else if task.Class != 0 {
			t.Fatal("type-E must map to class 0")
		}
	}
	if math.Abs(float64(c)/trials-0.5) > 0.01 {
		t.Fatalf("type-C rate %v", float64(c)/trials)
	}
}

func TestBernoulliBiased(t *testing.T) {
	g := Bernoulli{PC: 0.2}
	rng := xrand.New(51, 1)
	c := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if g.Next(0, rng).Type == TypeC {
			c++
		}
	}
	if math.Abs(float64(c)/trials-0.2) > 0.01 {
		t.Fatalf("biased rate %v", float64(c)/trials)
	}
}

func TestMultiClass(t *testing.T) {
	g := MultiClass{
		Weights:    []float64{1, 1, 2},
		ClassTypes: []TaskType{TypeE, TypeC, TypeC},
	}
	rng := xrand.New(52, 1)
	counts := make([]int, 3)
	const trials = 80000
	for i := 0; i < trials; i++ {
		task := g.Next(0, rng)
		counts[task.Class]++
		want := g.ClassTypes[task.Class]
		if task.Type != want {
			t.Fatalf("class %d mapped to type %v", task.Class, task.Type)
		}
	}
	if math.Abs(float64(counts[2])/trials-0.5) > 0.01 {
		t.Fatalf("class 2 rate %v", float64(counts[2])/trials)
	}
}

func TestBurstyPhases(t *testing.T) {
	g := &Bursty{PCHot: 0.9, PCCold: 0.1, SwitchProb: 0.01}
	rng := xrand.New(53, 1)
	c := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if g.Next(0, rng).Type == TypeC {
			c++
		}
	}
	// Long-run average is ~(0.9+0.1)/2 = 0.5 but with heavy autocorrelation;
	// just check the rate is between the phase extremes and autocorrelation
	// exists (streaks longer than i.i.d. would produce).
	rate := float64(c) / trials
	if rate < 0.3 || rate > 0.7 {
		t.Fatalf("bursty long-run rate %v", rate)
	}
	// Autocorrelation: count adjacent equal pairs; i.i.d. p=0.5 gives 0.5.
	g2 := &Bursty{PCHot: 0.95, PCCold: 0.05, SwitchProb: 0.005}
	rng2 := xrand.New(54, 1)
	prev := g2.Next(0, rng2).Type
	agree := 0
	const n2 = 100000
	for i := 0; i < n2; i++ {
		cur := g2.Next(0, rng2).Type
		if cur == prev {
			agree++
		}
		prev = cur
	}
	if float64(agree)/n2 < 0.6 {
		t.Fatalf("bursty stream shows no autocorrelation: %v", float64(agree)/n2)
	}
}

func TestBurstyPerBalancerPhases(t *testing.T) {
	// Distinct balancers must evolve independent phases.
	g := &Bursty{PCHot: 1, PCCold: 0, SwitchProb: 0.5}
	rng := xrand.New(55, 1)
	diff := false
	for i := 0; i < 100; i++ {
		a := g.Next(1, rng).Type
		b := g.Next(2, rng).Type
		if a != b {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("balancers never diverged in phase")
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	p := &PoissonArrivals{Rate: 1000} // 1 per ms
	rng := xrand.New(56, 1)
	var last time.Duration
	const n = 50000
	for i := 0; i < n; i++ {
		ts := p.Next(rng)
		if ts <= last {
			t.Fatal("arrival times must be strictly increasing")
		}
		last = ts
	}
	gotRate := float64(n) / last.Seconds()
	if math.Abs(gotRate-1000)/1000 > 0.02 {
		t.Fatalf("arrival rate %v, want 1000", gotRate)
	}
	p.Reset()
	if p.Next(rng) > last {
		t.Fatal("Reset should restart the clock")
	}
}

// TestBurstyParallelDistinctBalancers is the -race regression test for the
// lazily-initialized phase map Bursty used to carry: sharded and sweep runs
// share one generator across worker goroutines, and even with each goroutine
// sticking to its own balancer indices the old map was a data race (lazy
// init + concurrent map writes). The presized slice makes disjoint-element
// writes race-free; this test fails under -race against the pre-fix code.
func TestBurstyParallelDistinctBalancers(t *testing.T) {
	const balancers = 8
	g := NewBursty(0.9, 0.1, 0.05, balancers)
	var wg sync.WaitGroup
	for b := 0; b < balancers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := xrand.New(77, uint64(b))
			for i := 0; i < 5000; i++ {
				g.Next(b, rng)
			}
		}(b)
	}
	wg.Wait()
}

// TestBurstyResetParity pins the phase-leak fix: two runs from the same
// generator, separated by Reset, must produce identical streams — before
// Reset existed, the second run started in whatever phase the first ended
// in. PoissonArrivals gets the same parity check for its clock.
func TestBurstyResetParity(t *testing.T) {
	g := NewBursty(0.95, 0.05, 0.02, 4)
	draw := func() []Task {
		out := make([]Task, 0, 4*200)
		rng := xrand.New(78, 1)
		for slot := 0; slot < 200; slot++ {
			for b := 0; b < 4; b++ {
				out = append(out, g.Next(b, rng))
			}
		}
		return out
	}
	first := draw()
	g.Reset()
	second := draw()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("draw %d differs after Reset: %v vs %v", i, first[i], second[i])
		}
	}
	// Clone parity: a clone replays the prototype's pristine stream.
	g.Reset()
	c := g.CloneGenerator().(*Bursty)
	rngA, rngB := xrand.New(79, 1), xrand.New(79, 1)
	for i := 0; i < 500; i++ {
		b := i % 4
		if g.Next(b, rngA) != c.Next(b, rngB) {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
}

func TestPoissonResetParity(t *testing.T) {
	p := &PoissonArrivals{Rate: 500}
	draw := func() []time.Duration {
		out := make([]time.Duration, 300)
		rng := xrand.New(80, 1)
		for i := range out {
			out[i] = p.Next(rng)
		}
		return out
	}
	first := draw()
	p.Reset()
	second := draw()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("arrival %d differs after Reset: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestPoissonArrivalsTinyRateSaturates is the overflow regression test: at
// rates tiny enough that one exponential gap exceeds int64 nanoseconds, the
// pre-fix conversion wrapped negative and arrival times walked backwards.
// The clock must instead saturate at the maximum Duration and stay there.
func TestPoissonArrivalsTinyRateSaturates(t *testing.T) {
	p := &PoissonArrivals{Rate: 1e-15} // mean gap ~1e15 s ≈ 1e24 ns >> MaxInt64
	rng := xrand.New(81, 1)
	var last time.Duration
	for i := 0; i < 100; i++ {
		ts := p.Next(rng)
		if ts < 0 {
			t.Fatalf("arrival %d went negative: %v", i, ts)
		}
		if ts < last {
			t.Fatalf("arrival %d moved backwards: %v after %v", i, ts, last)
		}
		last = ts
	}
	if last != math.MaxInt64 {
		t.Fatalf("clock should saturate at MaxInt64, got %v", last)
	}
	// A clock already near the end of time must saturate, not wrap.
	q := &PoissonArrivals{Rate: 1000, last: math.MaxInt64 - 10}
	if ts := q.Next(rng); ts != math.MaxInt64 {
		t.Fatalf("near-limit clock should pin to MaxInt64, got %v", ts)
	}
}

func TestMultiClassValidate(t *testing.T) {
	good := MultiClass{
		Weights:    []float64{1, 2},
		ClassTypes: []TaskType{TypeE, TypeC},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, bad := range map[string]MultiClass{
		"short types":      {Weights: []float64{1, 1, 1}, ClassTypes: []TaskType{TypeE, TypeC}},
		"empty":            {},
		"negative weight":  {Weights: []float64{1, -1}, ClassTypes: []TaskType{TypeE, TypeC}},
		"zero-sum weights": {Weights: []float64{0, 0}, ClassTypes: []TaskType{TypeE, TypeC}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: expected a validation error", name)
		}
	}
}

func TestPoissonArrivalsInvalidRatePanics(t *testing.T) {
	// NaN used to slip past a `<= 0` guard and pin the clock at the end of
	// time instead of panicking.
	for _, rate := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v: expected panic", rate)
				}
			}()
			(&PoissonArrivals{Rate: rate}).Next(xrand.New(1, 1))
		}()
	}
}

func TestTaskTypeString(t *testing.T) {
	if TypeC.String() != "C" || TypeE.String() != "E" {
		t.Fatal("task type names wrong")
	}
	if TaskType(9).String() == "" {
		t.Fatal("unknown type should still render")
	}
}
