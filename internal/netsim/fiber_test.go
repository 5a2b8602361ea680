package netsim

import (
	"math"
	"testing"
	"time"
)

func TestPropagationDelay(t *testing.T) {
	// 100 km of fiber at 2×10⁸ m/s is 500 µs — the Figure 2 scale.
	d := PropagationDelay(100_000)
	if math.Abs(float64(d-500*time.Microsecond)) > float64(time.Nanosecond) {
		t.Fatalf("100 km delay = %v, want 500µs", d)
	}
	if PropagationDelay(0) != 0 {
		t.Fatal("zero distance should be zero delay")
	}
}

func TestPropagationDelayNegativePanics(t *testing.T) {
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PropagationDelay(%v): expected panic", d)
				}
			}()
			PropagationDelay(d)
		}()
	}
}

func TestLinkDelayLookup(t *testing.T) {
	// A 100 km hop scheduled on the engine lands 500 µs later, whichever
	// end sends.
	var e Engine
	oneWay := PropagationDelay(100_000)
	var delivered []time.Duration
	for _, sentAt := range []time.Duration{0, 3 * time.Millisecond} {
		e.ScheduleAt(sentAt, func() {
			e.Schedule(oneWay, func() { delivered = append(delivered, e.Now()-sentAt) })
		})
	}
	e.Run(0)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(delivered))
	}
	for _, d := range delivered {
		if d != 500*time.Microsecond {
			t.Fatalf("100 km link delivered after %v, want 500µs", d)
		}
	}
}

func TestRequestResponseRTT(t *testing.T) {
	// Classical coordination: A's request crosses the fiber, B answers, and
	// A can decide only when the answer is back — one full round trip.
	var e Engine
	oneWay := PropagationDelay(100_000)
	var decisionAt time.Duration
	e.Schedule(oneWay, func() { // request reaches B
		e.Schedule(oneWay, func() { decisionAt = e.Now() }) // response reaches A
	})
	e.Run(0)
	if decisionAt != 2*oneWay {
		t.Fatalf("classical decision at %v, want RTT %v", decisionAt, 2*oneWay)
	}
}
