package admission

import (
	"testing"
	"time"
)

var epoch = time.Unix(1_700_000_000, 0)

// newTestController builds a single-shard controller with round numbers:
// 100µs per round → 10k rounds/s capacity, 10ms backlog cap.
func newTestController(mut func(*Config)) *Controller {
	cfg := Config{
		InitialService: 100 * time.Microsecond,
		MaxBacklog:     10 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewController(cfg, 1)
}

func TestParsePriority(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Priority
		err  bool
	}{
		{"", PriorityNormal, false},
		{"normal", PriorityNormal, false},
		{"high", PriorityHigh, false},
		{"low", PriorityLow, false},
		{"urgent", PriorityNormal, true},
	} {
		got, err := ParsePriority(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
	if PriorityHigh.String() != "high" || PriorityNormal.String() != "normal" || PriorityLow.String() != "low" {
		t.Errorf("priority names: %v %v %v", PriorityHigh, PriorityNormal, PriorityLow)
	}
}

// TestBacklogDrainsInWallTime pins the Lindley recursion: each accepted
// request adds its modeled cost, elapsed wall time drains it.
func TestBacklogDrainsInWallTime(t *testing.T) {
	c := newTestController(nil)
	now := epoch

	d := c.Admit(0, now, time.Time{}, PriorityNormal, 10)
	if !d.OK || d.QueueNS != 0 {
		t.Fatalf("first admit: %+v", d)
	}
	if got := c.Backlog(0, now); got != time.Millisecond {
		t.Fatalf("backlog after 10 rounds = %v, want 1ms", got)
	}

	// A second arrival at the same instant queues behind the first.
	d = c.Admit(0, now, time.Time{}, PriorityNormal, 1)
	if !d.OK || d.QueueNS != int64(time.Millisecond) {
		t.Fatalf("second admit: %+v", d)
	}

	// 500µs later, half a millisecond has drained.
	now = now.Add(500 * time.Microsecond)
	if got := c.Backlog(0, now); got != 600*time.Microsecond {
		t.Fatalf("backlog after drain = %v, want 600µs", got)
	}

	// Long idle drains to zero, never below.
	now = now.Add(time.Second)
	if got := c.Backlog(0, now); got != 0 {
		t.Fatalf("backlog after idle = %v, want 0", got)
	}
}

// TestDeadlineGateRejectsLateWork pins the core acceptance rule: a request
// whose modeled queue+service exceeds its remaining budget sheds with a
// retryable decision, and accepted requests always fit their budget.
func TestDeadlineGateRejectsLateWork(t *testing.T) {
	c := newTestController(nil)
	now := epoch

	// Fill 2ms of backlog.
	c.Admit(0, now, time.Time{}, PriorityHigh, 20)

	// Budget 1ms < backlog 2ms: shed, with RetryAfter ≈ the backlog.
	d := c.Admit(0, now, now.Add(time.Millisecond), PriorityHigh, 1)
	if d.OK || d.Outcome != ShedDeadline {
		t.Fatalf("late request admitted: %+v", d)
	}
	if d.RetryAfter != 2*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 2ms", d.RetryAfter)
	}

	// Budget 3ms > backlog 2ms + cost 100µs: accepted, and the modeled
	// wait is exactly the backlog ahead of it.
	d = c.Admit(0, now, now.Add(3*time.Millisecond), PriorityHigh, 1)
	if !d.OK || d.QueueNS != int64(2*time.Millisecond) {
		t.Fatalf("in-budget request: %+v", d)
	}

	// The shed request must not have grown the backlog.
	if got := c.Backlog(0, now); got != 2*time.Millisecond+100*time.Microsecond {
		t.Fatalf("backlog = %v, want 2.1ms", got)
	}
}

// TestDefaultBudgetAppliesToUnstampedRequests: with DefaultBudget set,
// requests without a deadline still shed once the backlog exceeds it.
func TestDefaultBudgetAppliesToUnstampedRequests(t *testing.T) {
	c := newTestController(func(cfg *Config) { cfg.DefaultBudget = time.Millisecond })
	now := epoch
	c.Admit(0, now, time.Time{}, PriorityHigh, 9) // 900µs backlog: fits
	d := c.Admit(0, now, time.Time{}, PriorityHigh, 9)
	if d.OK || d.Outcome != ShedDeadline {
		t.Fatalf("unstamped request beyond DefaultBudget admitted: %+v", d)
	}
}

// TestPrioritySheddingOrder pins the tier thresholds: as the backlog
// climbs, low sheds first (40% of cap), then normal (60%), and
// high-priority traffic is refused only by the hard cap (100%).
func TestPrioritySheddingOrder(t *testing.T) {
	c := newTestController(nil) // cap 10ms → low 4ms, normal 6ms
	now := epoch

	fill := func(ms int) {
		for c.Backlog(0, now) < time.Duration(ms)*time.Millisecond {
			if d := c.Admit(0, now, time.Time{}, PriorityHigh, 10); !d.OK {
				t.Fatalf("fill blocked at %v: %+v", c.Backlog(0, now), d)
			}
		}
	}

	// Below every threshold: all tiers admitted.
	fill(3)
	for _, p := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		if d := c.Admit(0, now, time.Time{}, p, 1); !d.OK {
			t.Fatalf("tier %v shed at 3ms backlog: %+v", p, d)
		}
	}

	// Past the low threshold: low sheds, normal and high still admitted.
	fill(5)
	if d := c.Admit(0, now, time.Time{}, PriorityLow, 1); d.OK || d.Outcome != ShedPriority {
		t.Fatalf("low at 5ms: %+v", d)
	}
	if d := c.Admit(0, now, time.Time{}, PriorityNormal, 1); !d.OK {
		t.Fatalf("normal at 5ms: %+v", d)
	}

	// Past the normal threshold: only high admitted.
	fill(7)
	if d := c.Admit(0, now, time.Time{}, PriorityNormal, 1); d.OK || d.Outcome != ShedPriority {
		t.Fatalf("normal at 7ms: %+v", d)
	}
	if d := c.Admit(0, now, time.Time{}, PriorityHigh, 1); !d.OK {
		t.Fatalf("high at 7ms: %+v", d)
	}

	// At the hard cap even high sheds — with ShedBacklog, not priority.
	for {
		d := c.Admit(0, now, time.Time{}, PriorityHigh, 1)
		if d.OK {
			continue
		}
		if d.Outcome != ShedBacklog {
			t.Fatalf("high at cap shed with %v, want ShedBacklog", d.Outcome)
		}
		break
	}
}

// TestBrownoutEngagesBeforeHighPriorityShedding pins the rung ordering the
// tentpole requires: sustained backlog beyond the enter line (75% of cap)
// flips brownout ON while high-priority traffic is still being admitted —
// the cheap classical rung engages before any high-priority shedding.
func TestBrownoutEngagesBeforeHighPriorityShedding(t *testing.T) {
	c := newTestController(func(cfg *Config) { cfg.BrownoutSustain = 3 })
	now := epoch

	// Push the backlog into the brownout band (7.5ms < b < 10ms) and hold
	// it there for Sustain arrivals.
	for c.Backlog(0, now) < 8*time.Millisecond {
		c.Admit(0, now, time.Time{}, PriorityHigh, 10)
	}
	var d Decision
	for i := 0; i < 3; i++ {
		d = c.Admit(0, now, time.Time{}, PriorityHigh, 1)
		if !d.OK {
			t.Fatalf("high shed inside brownout band: %+v", d)
		}
	}
	if !d.Brownout || !c.Brownout(0) {
		t.Fatalf("brownout not engaged after sustained backlog: %+v", d)
	}

	// Recovery: drain below the exit line (2.5ms) and hold.
	now = now.Add(8 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if d = c.Admit(0, now, time.Time{}, PriorityHigh, 1); !d.Brownout {
			t.Fatalf("brownout released before sustain: %+v", d)
		}
	}
	if d = c.Admit(0, now, time.Time{}, PriorityHigh, 1); d.Brownout {
		t.Fatalf("brownout still on after sustained drain: %+v", d)
	}
	if entered, exited := c.BrownoutFlips(0); entered != 1 || exited != 1 {
		t.Fatalf("brownout flips: entered %d, exited %d; want 1 and 1", entered, exited)
	}
}

// TestBrownoutHysteresisIgnoresBursts: a single excursion past the enter
// line does not flip brownout; the strike counter resets in the
// no-man's-land between exit and enter.
func TestBrownoutHysteresisIgnoresBursts(t *testing.T) {
	c := newTestController(func(cfg *Config) { cfg.BrownoutSustain = 4 })
	now := epoch

	for c.Backlog(0, now) < 8*time.Millisecond {
		c.Admit(0, now, time.Time{}, PriorityHigh, 10)
	}
	// Two strikes...
	c.Admit(0, now, time.Time{}, PriorityHigh, 1)
	c.Admit(0, now, time.Time{}, PriorityHigh, 1)
	// ...then the backlog dips into the middle band: strikes reset.
	now = now.Add(4 * time.Millisecond)
	c.Admit(0, now, time.Time{}, PriorityHigh, 1)
	// Back above enter: two more strikes must NOT flip (counter restarted).
	for c.Backlog(0, now) < 8*time.Millisecond {
		c.Admit(0, now, time.Time{}, PriorityHigh, 10)
	}
	c.Admit(0, now, time.Time{}, PriorityHigh, 1)
	c.Admit(0, now, time.Time{}, PriorityHigh, 1)
	if entered, _ := c.BrownoutFlips(0); c.Brownout(0) || entered != 0 {
		t.Fatal("brownout engaged by non-sustained excursions")
	}
}

// TestObserveOnlyModeAdmitsEverything: DisableShedding tracks state but
// never rejects — the pre-PR behavior the overload test documents.
func TestObserveOnlyModeAdmitsEverything(t *testing.T) {
	c := newTestController(func(cfg *Config) { cfg.DisableShedding = true })
	now := epoch
	for i := 0; i < 1000; i++ {
		if d := c.Admit(0, now, now.Add(time.Millisecond), PriorityLow, 10); !d.OK {
			t.Fatalf("observe-only shed request %d: %+v", i, d)
		}
	}
	// The modeled backlog still grows without bound — that IS the
	// collapse: every admitted request is charged a 1-second queue.
	if got := c.Backlog(0, now); got != time.Second {
		t.Fatalf("observe-only backlog = %v, want 1s", got)
	}
}

// TestObserveUpdatesEstimate pins the EWMA: positive samples move the
// per-round estimate, non-positive samples (virtual time) are discarded.
func TestObserveUpdatesEstimate(t *testing.T) {
	c := newTestController(nil)
	if got := c.Estimate(0); got != 100*time.Microsecond {
		t.Fatalf("seed estimate = %v", got)
	}
	c.Observe(0, 0)  // frozen virtual clock: ignored
	c.Observe(0, -1) // non-monotonic clock: ignored
	if got := c.Estimate(0); got != 100*time.Microsecond {
		t.Fatalf("estimate moved on non-positive sample: %v", got)
	}
	c.Observe(0, 200*time.Microsecond)
	// 100µs + 0.1·(200µs − 100µs) = 110µs
	if got := c.Estimate(0); got != 110*time.Microsecond {
		t.Fatalf("estimate after sample = %v, want 110µs", got)
	}
}

// TestShardIsolation: backlog on one shard never sheds another.
func TestShardIsolation(t *testing.T) {
	cfg := Config{InitialService: 100 * time.Microsecond, MaxBacklog: 10 * time.Millisecond}
	c := NewController(cfg, 4)
	now := epoch
	for i := 0; i < 200; i++ {
		c.Admit(0, now, time.Time{}, PriorityHigh, 10)
	}
	if d := c.Admit(1, now, now.Add(time.Millisecond), PriorityLow, 1); !d.OK {
		t.Fatalf("shard 1 shed by shard 0 backlog: %+v", d)
	}
}

func TestLimiterTryAcquireRespectsLimit(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 2, Min: 1, Max: 4})
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limit 2: first two acquisitions must succeed")
	}
	if l.TryAcquire() {
		t.Fatal("third acquisition beyond limit succeeded")
	}
	l.Release(0, nil)
	if !l.TryAcquire() {
		t.Fatal("acquisition after release failed")
	}
}

// TestLimiterAIMD pins the control law: healthy latency at full
// utilization grows the limit additively; a latency-gradient trip shrinks
// it multiplicatively and never below Min.
func TestLimiterAIMD(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 4, Min: 2, Max: 8, Tolerance: 2, Backoff: 0.5})

	// Saturate and complete at a flat 1ms: additive increase.
	for i := 0; i < 64; i++ {
		n := 0
		for l.TryAcquire() {
			n++
		}
		for j := 0; j < n; j++ {
			l.Release(time.Millisecond, nil)
		}
	}
	if got := l.Limit(); got <= 4 {
		t.Fatalf("limit after healthy saturation = %d, want > 4", got)
	}

	// Latency explodes 10×: the fast EWMA trips the gradient within a few
	// completions and the limit halves down to Min. (Held there long
	// enough, the slow baseline eventually adapts and the limiter
	// re-probes — so assert right after the trip, not at steady state.)
	for i := 0; i < 8; i++ {
		if l.TryAcquire() {
			l.Release(10*time.Millisecond, nil)
		}
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit after latency trip = %d, want Min=2", got)
	}

	// Zero-latency samples (virtual time) never move the limit.
	before := l.Limit()
	for i := 0; i < 16; i++ {
		if l.TryAcquire() {
			l.Release(0, nil)
		}
	}
	if got := l.Limit(); got != before {
		t.Fatalf("virtual-time samples moved limit %d → %d", before, got)
	}
}

// TestLimiterQueueFIFOAndExpiry: waiters are granted in arrival order, the
// queue is bounded, and a waiter whose deadline lapses while queued is
// expired instead of served (CoDel-on-dequeue).
func TestLimiterQueueFIFOAndExpiry(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 1, Min: 1, Max: 1, QueueDepth: 2})
	clock := func() time.Time { return time.Now() }

	if got := l.Acquire(clock, time.Time{}); got != Accepted {
		t.Fatalf("first acquire: %v", got)
	}

	type result struct {
		id int
		o  Outcome
	}
	results := make(chan result, 3)
	acquired := make(chan int, 3)
	for i := 1; i <= 2; i++ {
		go func(id int, deadline time.Time) {
			o := l.Acquire(clock, deadline)
			if o == Accepted {
				acquired <- id
			}
			results <- result{id, o}
		}(i, time.Now().Add(5*time.Second))
		// Deterministic FIFO order requires ordered enqueue.
		for l.Inflight() == 0 {
			time.Sleep(time.Millisecond)
		}
		waitQueued(t, l, i)
	}

	// Queue full (depth 2): an immediate third waiter is rejected.
	if got := l.Acquire(clock, time.Now().Add(time.Second)); got != ShedLimiter {
		t.Fatalf("over-depth acquire: %v", got)
	}

	// Release: waiter 1 (FIFO head) gets the slot, then waiter 2.
	l.Release(time.Millisecond, clock)
	if id := <-acquired; id != 1 {
		t.Fatalf("first grant went to waiter %d, want 1", id)
	}
	l.Release(time.Millisecond, clock)
	if id := <-acquired; id != 2 {
		t.Fatalf("second grant went to waiter %d, want 2", id)
	}
	l.Release(time.Millisecond, clock)
	<-results
	<-results

	// Expiry: a waiter with an already-lapsed deadline is expired, and the
	// slot it never took remains usable.
	if got := l.Acquire(clock, time.Time{}); got != Accepted {
		t.Fatalf("re-acquire: %v", got)
	}
	if got := l.Acquire(clock, time.Now().Add(10*time.Millisecond)); got != ShedExpired {
		t.Fatalf("lapsed waiter: %v, want ShedExpired", got)
	}
	l.Release(time.Millisecond, clock)
	if got := l.Acquire(clock, time.Time{}); got != Accepted {
		t.Fatalf("slot lost to expired waiter: %v", got)
	}
	l.Release(time.Millisecond, clock)
}

// TestExpiredWaiterLeavesQueue: a waiter whose deadline lapses takes its
// place in the queue with it. Left behind until the next Release, it
// counted against QueueDepth, and the next live arrival was shed at once.
func TestExpiredWaiterLeavesQueue(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 4, Min: 4, Max: 4, QueueDepth: 1})
	for i := 0; i < 4; i++ {
		if !l.TryAcquire() {
			t.Fatalf("slot %d refused", i)
		}
	}
	if got := l.Acquire(time.Now, time.Now().Add(5*time.Millisecond)); got != ShedExpired {
		t.Fatalf("lapsed waiter: %v, want ShedExpired", got)
	}
	if n := l.Queued(); n != 0 {
		t.Fatalf("expired waiter still queued: %d waiting", n)
	}
	// The next live arrival queues in the freed place and gets the next slot.
	got := make(chan Outcome, 1)
	go func() { got <- l.Acquire(time.Now, time.Now().Add(5*time.Second)) }()
	waitQueued(t, l, 1)
	l.Release(time.Millisecond, time.Now)
	if o := <-got; o != Accepted {
		t.Fatalf("live arrival after an expiry: %v, want Accepted", o)
	}
}

func waitQueued(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l.Queued() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("waiter %d never queued", n)
}
