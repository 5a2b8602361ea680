package admission

import (
	"testing"
	"time"
)

// The admission gate sits on the serving hot path ahead of every decide, so
// its accept path must stay allocation-free and cheap relative to the ~µs
// decide itself. These benchmarks back the informational benchstat lane in
// CI (baseline in .github/bench-overload-baseline.txt, refresh with
// `make bench-overload-baseline`).

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

// BenchmarkLimiterTryAcquireRelease measures one uncontended pass through
// the concurrency limiter — the in-process fast path (TryAcquire + the
// latency-free Release).
func BenchmarkLimiterTryAcquireRelease(b *testing.B) {
	l := NewLimiter(LimiterConfig{})
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
