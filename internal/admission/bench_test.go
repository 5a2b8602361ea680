package admission

import (
	"testing"
	"time"
)

// The admission controller sits on the serving hot path ahead of every
// decide, so its accept and shed paths must stay allocation-free and cheap
// relative to the ~µs decide itself. CI runs these as a smoke (they must
// keep building and running); timings come from benchmark/run.sh.

// BenchmarkAdmissionAdmitAccept measures the accept path: the virtual
// backlog fully drains between arrivals, so every Admit succeeds.
func BenchmarkAdmissionAdmitAccept(b *testing.B) {
	c := NewController(Config{InitialService: 100 * time.Microsecond}, 1)
	now := time.Unix(1_700_000_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Millisecond)
		if dec := c.Admit(0, now, time.Time{}, PriorityHigh, 1); !dec.OK {
			b.Fatal("accept-path benchmark shed")
		}
	}
}

// BenchmarkAdmissionAdmitShed measures the reject path: a frozen clock
// holds the backlog above the normal-priority line, so every Admit sheds
// without touching the backlog.
func BenchmarkAdmissionAdmitShed(b *testing.B) {
	c := NewController(Config{InitialService: 100 * time.Microsecond, MaxBacklog: 10 * time.Millisecond}, 1)
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 80; i++ { // fill past the 6ms normal threshold
		c.Admit(0, now, time.Time{}, PriorityHigh, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dec := c.Admit(0, now, time.Time{}, PriorityNormal, 1); dec.OK {
			b.Fatal("shed-path benchmark accepted")
		}
	}
}

// BenchmarkControllerTryAdmitShed measures the in-process door's refusal,
// the overload case: with 3ms of backlog on a frozen clock, a request
// stamped 1ms ahead passes the tier and cap lines and sheds on its
// deadline, so every call runs the whole gate and gives its limiter slot
// back, in one hold.
func BenchmarkControllerTryAdmitShed(b *testing.B) {
	c := NewController(Config{InitialService: 100 * time.Microsecond, MaxBacklog: 10 * time.Millisecond}, 1)
	now := time.Unix(1_700_000_000, 0)
	c.Admit(0, now, time.Time{}, PriorityHigh, 30)
	deadline := now.Add(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := c.TryAdmit(now, deadline, PriorityNormal, 1); v.Outcome != ShedDeadline {
			b.Fatalf("shed-path benchmark: %+v", v)
		}
	}
}

// BenchmarkControllerTryAdmitAccept measures an admitted request's two
// holds: TryAdmit with a deadline it meets (arrivals a millisecond apart
// drain the backlog), then Done with a virtual-time (zero) latency.
func BenchmarkControllerTryAdmitAccept(b *testing.B) {
	c := NewController(Config{InitialService: 100 * time.Microsecond, MaxBacklog: 10 * time.Millisecond}, 1)
	now := time.Unix(1_700_000_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Millisecond)
		if v := c.TryAdmit(now, now.Add(5*time.Millisecond), PriorityNormal, 1); v.Outcome != Accepted {
			b.Fatalf("accept-path benchmark: %+v", v)
		}
		c.Done(0, 1, nil)
	}
}

// BenchmarkLimiterTryAcquireRelease measures one uncontended pass through
// the concurrency limiter alone (TryAcquire + the latency-free Release).
func BenchmarkLimiterTryAcquireRelease(b *testing.B) {
	l := newTestLimiter(LimiterConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.TryAcquire() {
			b.Fatal("uncontended TryAcquire failed")
		}
		l.Release(0, nil)
	}
}

// BenchmarkAdmissionObserve measures the EWMA service-time update that
// every completed request pays.
func BenchmarkAdmissionObserve(b *testing.B) {
	c := NewController(Config{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(0, 50*time.Microsecond)
	}
}
