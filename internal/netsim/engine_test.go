package netsim

import (
	"testing"
	"time"
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

func TestEvery(t *testing.T) {
	var e Engine
	count := 0
	cancel := e.Every(time.Millisecond, func() {
		count++
		if count == 7 {
			e.Stop()
		}
	})
	e.Run(0)
	if count != 7 {
		t.Fatalf("ticks = %d", count)
	}
	if e.Now() != 7*time.Millisecond {
		t.Fatalf("clock %v", e.Now())
	}
	cancel()
	e.Run(0)
	if count != 7 {
		t.Fatal("cancel did not stop the ticker")
	}
}

func TestEveryCancelFromTick(t *testing.T) {
	var e Engine
	count := 0
	var cancel func()
	cancel = e.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			cancel()
		}
	})
	e.Run(0)
	if count != 3 {
		t.Fatalf("ticks after self-cancel = %d", count)
	}
}

func TestEveryInvalidIntervalPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, func() {})
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
