package admission

import (
	"math/rand/v2"
	"testing"
	"time"
)

// FuzzControllerOps drives the one-mutex controller and the two-lock
// oracle (export_test.go) through the same random sequence of TryAdmit,
// Admit, Done, Observe, TryAcquire and Release calls, and after every call
// requires equal decisions and equal state: each gate's backlog, estimate,
// brownout and flips, the limiter's limit and in-flight count, and a
// State read that agrees with them. It also checks the Lindley invariants
// directly: the backlog is never negative, and with shedding on an accepted
// request's queue wait plus cost fits inside its remaining budget.
//
// The clock is frozen, moves forward, jumps, or runs backwards; each
// reading and each deadline is monotonic (time.Now-based) or wall-only, so
// both of time.Time's comparison rules are in play. Deadlines are zero,
// past or future; priorities are all three tiers; rounds run from 0 to
// 4096.
func FuzzControllerOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 1})
	// DisableShedding, DefaultBudget, two gates.
	f.Add([]byte{0x07, 3, 2, 9, 0, 1, 0, 0, 0, 16, 1, 0x81, 0, 2, 0, 1, 3})
	// A long random walk for each config bit pattern.
	r := rand.New(rand.NewPCG(1, 2))
	for cfg := 0; cfg < 8; cfg++ {
		b := make([]byte, 4+10*600)
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		b[0] = byte(cfg) | b[0]&0xf8
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		flags := in.next()
		cfg := Config{
			InitialService:  time.Duration(1+int(in.next())%200) * time.Microsecond,
			MaxBacklog:      10 * time.Millisecond,
			DisableShedding: flags&1 != 0,
			BrownoutSustain: 1 + int(flags>>3)%4,
		}
		if flags&2 != 0 {
			cfg.DefaultBudget = time.Duration(1+int(in.next())%16) * 500 * time.Microsecond
		}
		lim := in.next()
		cfg.Limiter = LimiterConfig{Initial: 1 + int(lim)%8, Min: 1, Max: 1 + int(lim)%8 + int(lim>>3)%8}
		gates := 1
		if flags&4 != 0 {
			gates = 2
		}
		c, o := NewController(cfg, gates), newTwoLockController(cfg, gates)

		base := time.Now() // carries a monotonic reading
		var offset time.Duration
		now := base
		held := 0 // limiter slots taken and not yet given back
		for op := 0; !in.done() && op < 1000; op++ {
			kind, clock := in.next()%6, in.next()
			step := time.Duration(in.next()) * time.Microsecond
			switch clock % 8 {
			case 3, 4:
				offset += step
			case 5:
				offset -= step
			case 6:
				offset += 20 * step
			case 7:
				offset += 1000 * step
			}
			now = base.Add(offset)
			if clock&0x80 != 0 {
				now = now.Round(0) // wall reading only
			}
			deadline := in.deadline(now)
			p := Priority(in.next() % 3)
			rounds := in.rounds()
			elapsed := in.elapsed()

			switch kind {
			case 0:
				got, want := c.TryAdmit(now, deadline, p, rounds).decision(), o.tryAdmit(now, deadline, p, rounds)
				if got != want {
					t.Fatalf("op %d TryAdmit(%v, %v, %v, %d) = %+v, oracle %+v", op, offset, deadline, p, rounds, got, want)
				}
				if got.OK {
					held++
					checkFits(t, c, 0, cfg, now, deadline)
				}
			case 1:
				g := int(clock>>4) & 1
				got, want := c.Admit(g, now, deadline, p, rounds), o.Admit(g, now, deadline, p, rounds)
				if got != want {
					t.Fatalf("op %d Admit(%d, %v, %v, %v, %d) = %+v, oracle %+v", op, g, offset, deadline, p, rounds, got, want)
				}
				if got.OK {
					checkFits(t, c, g, cfg, now, deadline)
				}
			case 2:
				if held > 0 {
					held--
					n := max(rounds, 1)
					clockFn := func() time.Time { return now }
					c.Done(elapsed, n, clockFn)
					o.done(elapsed, n, clockFn)
				}
			case 3:
				g := int(clock>>4) & 1
				c.Observe(g, elapsed)
				o.Observe(g, elapsed)
			case 4:
				got, want := c.Limiter().TryAcquire(), o.limiter.TryAcquire()
				if got != want {
					t.Fatalf("op %d TryAcquire = %v, oracle %v", op, got, want)
				}
				if got {
					held++
				}
			case 5:
				if held > 0 {
					held--
					c.Limiter().Release(elapsed, nil)
					o.limiter.Release(elapsed, nil)
				}
			}
			compareState(t, op, c, o, now)
		}
	})
}

// checkFits asserts the deadline half of the Lindley invariant for a
// request gate g just accepted: its queue wait and cost, which are now the
// gate's whole backlog, end inside its budget.
func checkFits(t *testing.T, c *Controller, g int, cfg Config, now, deadline time.Time) {
	t.Helper()
	if cfg.DisableShedding {
		return
	}
	if deadline.IsZero() {
		if cfg.DefaultBudget == 0 {
			return
		}
		deadline = now.Add(cfg.DefaultBudget)
	}
	if end := now.Add(c.gate(g).backlog); end.After(deadline) {
		t.Fatalf("accepted request ends %v past its deadline", end.Sub(deadline))
	}
}

// compareState requires equal observable state from the controller and the
// oracle, a non-negative backlog, and a State read equal to the accessors.
func compareState(t *testing.T, op int, c *Controller, o *twoLockController, now time.Time) {
	t.Helper()
	for g := 0; g < c.Shards(); g++ {
		if b := c.gate(g).backlog; b < 0 {
			t.Fatalf("op %d: gate %d backlog %v < 0", op, g, b)
		}
		if got, want := c.Backlog(g, now), o.Backlog(g, now); got != want {
			t.Fatalf("op %d: gate %d Backlog = %v, oracle %v", op, g, got, want)
		}
		if got, want := c.Estimate(g), o.Estimate(g); got != want {
			t.Fatalf("op %d: gate %d Estimate = %v, oracle %v", op, g, got, want)
		}
		if got, want := c.Brownout(g), o.Brownout(g); got != want {
			t.Fatalf("op %d: gate %d Brownout = %v, oracle %v", op, g, got, want)
		}
		ge, gx := c.BrownoutFlips(g)
		we, wx := o.BrownoutFlips(g)
		if ge != we || gx != wx {
			t.Fatalf("op %d: gate %d BrownoutFlips = %d/%d, oracle %d/%d", op, g, ge, gx, we, wx)
		}
	}
	l := c.Limiter()
	if got, want := l.Limit(), o.limiter.Limit(); got != want {
		t.Fatalf("op %d: Limit = %d, oracle %d", op, got, want)
	}
	if got, want := l.Inflight(), o.limiter.Inflight(); got != want {
		t.Fatalf("op %d: Inflight = %d, oracle %d", op, got, want)
	}
	entered, exited := c.BrownoutFlips(0)
	want := State{
		Backlog: c.Backlog(0, now), Estimate: c.Estimate(0),
		BrownoutEntered: entered, BrownoutExited: exited,
		Limit: l.Limit(), Inflight: l.Inflight(), Queued: l.Queued(),
	}
	if got := c.State(now); got != want {
		t.Fatalf("op %d: State = %+v, accessors %+v", op, got, want)
	}
}

// fuzzBytes reads the fuzzer's input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) done() bool { return len(*b) == 0 }

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// deadline is zero, a past or future instant near now (up to ~9ms either
// way), or one years away; monotonic like now or wall-only.
func (b *fuzzBytes) deadline(now time.Time) time.Time {
	k := b.next()
	d := time.Duration(b.next()) * 37 * time.Microsecond
	var at time.Time
	switch k % 5 {
	case 0:
		return time.Time{}
	case 1:
		at = now.Add(-d)
	case 2, 3:
		at = now.Add(d)
	case 4:
		at = now.Add(time.Duration(int8(b.next())) * 24 * 365 * time.Hour)
	}
	if k&0x80 != 0 {
		at = at.Round(0)
	}
	return at
}

// rounds is mostly a small batch (0 to 15), one time in eight up to 4096.
func (b *fuzzBytes) rounds() int {
	v := b.next()
	if v < 224 {
		return int(v % 16)
	}
	return (int(v&0x1f)<<8 | int(b.next())) % 4097
}

// elapsed is a service time: zero, negative (a clock that stepped back), a
// second, or up to about 130µs.
func (b *fuzzBytes) elapsed() time.Duration {
	switch v := b.next(); v {
	case 0:
		return 0
	case 1:
		return -time.Millisecond
	case 255:
		return time.Second
	default:
		return time.Duration(v) * time.Duration(v) * 2 * time.Nanosecond
	}
}
