package faults

import (
	"testing"
	"time"

	"repro/internal/entangle"
)

// queueSupplier is a finite FIFO of visibilities for exercising the wrapper.
type queueSupplier struct{ vs []float64 }

func (q *queueSupplier) TryConsume(time.Duration) (float64, bool) {
	if len(q.vs) == 0 {
		return 0, false
	}
	v := q.vs[0]
	q.vs = q.vs[1:]
	return v, true
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestSupplierOutageStarves(t *testing.T) {
	sched := Schedule{Windows: []Window{
		{Kind: KindSourceOutage, Start: ms(10), End: ms(20)},
	}}
	s := NewSupplier(&queueSupplier{vs: fill(100, 0.9)}, sched)
	if _, ok := s.TryConsume(ms(5)); !ok {
		t.Fatal("nominal consumption failed")
	}
	if _, ok := s.TryConsume(ms(15)); ok {
		t.Fatal("consumption succeeded during an outage")
	}
	if v, ok := s.TryConsume(ms(25)); !ok || v != 0.9 {
		t.Fatalf("post-outage consume: %v %v", v, ok)
	}
}

func TestSupplierThinsDeterministically(t *testing.T) {
	// Severity 0.25: each delivered pair costs 4 from the inner supplier
	// (3 burned + 1 delivered). 100 inner pairs → exactly 25 deliveries.
	sched := Schedule{Windows: []Window{
		{Kind: KindFiberLossBurst, Start: 0, End: time.Hour, Severity: 0.25},
	}}
	s := NewSupplier(&queueSupplier{vs: fill(100, 0.9)}, sched)
	delivered := 0
	for i := 0; i < 1000; i++ {
		if _, ok := s.TryConsume(ms(1)); ok {
			delivered++
		}
	}
	if delivered != 25 {
		t.Fatalf("delivered %d of 100 at severity 0.25, want exactly 25", delivered)
	}
}

func TestSupplierVisibilityScaledDuringSpike(t *testing.T) {
	sched := Schedule{Windows: []Window{
		{Kind: KindDecoherenceSpike, Start: ms(10), End: ms(20), Severity: 0.5},
	}}
	s := NewSupplier(entangle.PerfectSupplier{Visibility: 0.8}, sched)
	if v, _ := s.TryConsume(ms(5)); v != 0.8 {
		t.Fatalf("nominal visibility %v", v)
	}
	if v, _ := s.TryConsume(ms(15)); v != 0.4 {
		t.Fatalf("spiked visibility %v, want 0.4", v)
	}
	if v, _ := s.TryConsume(ms(25)); v != 0.8 {
		t.Fatalf("restored visibility %v", v)
	}
}

func TestSupplierFlushDrainsOnce(t *testing.T) {
	sched := Schedule{Windows: []Window{
		{Kind: KindPoolFlush, Start: ms(10), End: ms(10)},
	}}
	inner := &queueSupplier{vs: fill(10, 0.9)}
	s := NewSupplier(inner, sched)
	if _, ok := s.TryConsume(ms(1)); !ok {
		t.Fatal("pre-flush consume failed")
	}
	// First consume past the flush instant drains the 9 remaining pairs.
	if _, ok := s.TryConsume(ms(11)); ok {
		t.Fatal("consume right after the flush should find nothing")
	}
	if len(inner.vs) != 0 {
		t.Fatalf("flush left %d pairs in the inner supplier", len(inner.vs))
	}
	// The flush applies once: refilled supply flows again.
	inner.vs = fill(3, 0.7)
	if v, ok := s.TryConsume(ms(12)); !ok || v != 0.7 {
		t.Fatalf("post-flush consume: %v %v", v, ok)
	}
}

// Flushing depends on how many flush windows have started, not on where they
// sit in the slice: a schedule written out of start order (and interleaved
// with other kinds) flushes at the same instants as its sorted form.
func TestSupplierFlushIgnoresWindowOrder(t *testing.T) {
	shuffled := []Window{
		{Kind: KindPoolFlush, Start: ms(40), End: ms(40)},
		{Kind: KindDecoherenceSpike, Start: ms(5), End: ms(50), Severity: 0.5},
		{Kind: KindPoolFlush, Start: ms(10), End: ms(10)},
		{Kind: KindPoolFlush, Start: ms(25), End: ms(25)},
		{Kind: KindSourceOutage, Start: ms(30), End: ms(33)},
		{Kind: KindPoolFlush, Start: ms(25), End: ms(26)},
	}
	flushedAt := func(windows []Window) (instants []int) {
		inner := &queueSupplier{}
		s := NewSupplier(inner, Schedule{Windows: windows})
		for at := 0; at < 60; at++ {
			inner.vs = fill(4, 0.9)
			if _, ok := s.TryConsume(ms(at)); !ok && len(inner.vs) == 0 {
				instants = append(instants, at)
			}
		}
		return instants
	}
	got := flushedAt(shuffled)
	want := flushedAt(Schedule{Windows: shuffled}.sorted())
	if len(got) != 3 || got[0] != 10 || got[1] != 25 || got[2] != 40 {
		t.Fatalf("shuffled schedule flushed at %v ms, want [10 25 40]", got)
	}
	if len(want) != len(got) || want[0] != got[0] || want[1] != got[1] || want[2] != got[2] {
		t.Fatalf("shuffled schedule flushed at %v ms, sorted at %v ms", got, want)
	}
}

// TryConsume runs once per balancer pair per slot; it used to copy and sort
// the whole schedule every time.
func TestSupplierTryConsumeDoesNotAllocate(t *testing.T) {
	sched := Schedule{Windows: []Window{
		{Kind: KindPoolFlush, Start: ms(40), End: ms(40)},
		{Kind: KindFiberLossBurst, Start: ms(5), End: ms(50), Severity: 0.5},
		{Kind: KindPoolFlush, Start: ms(10), End: ms(10)},
		{Kind: KindSourceOutage, Start: ms(30), End: ms(33)},
	}}
	s := NewSupplier(entangle.PerfectSupplier{Visibility: 0.9}, sched)
	s.TryConsume(ms(41)) // both flushes applied: the bounded drains are behind us
	at := 0
	if a := testing.AllocsPerRun(500, func() { s.TryConsume(ms(41 + at%19)); at++ }); a != 0 {
		t.Fatalf("TryConsume: %v allocs/op, want 0", a)
	}
}

func TestSupplierFlushBoundedOnInfiniteInner(t *testing.T) {
	sched := Schedule{Windows: []Window{
		{Kind: KindPoolFlush, Start: ms(10), End: ms(10)},
	}}
	s := NewSupplier(entangle.PerfectSupplier{Visibility: 1}, sched)
	// Must terminate despite the inner supplier never running dry.
	if _, ok := s.TryConsume(ms(11)); !ok {
		t.Fatal("perfect supplier should still deliver after a bounded drain")
	}
}

func TestSupplierValidatesSchedule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSupplier with an invalid schedule should panic")
		}
	}()
	NewSupplier(entangle.PerfectSupplier{Visibility: 1}, Schedule{Windows: []Window{
		{Kind: KindFiberLossBurst, Start: 0, End: ms(1), Severity: 2},
	}})
}
