package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/metrics"
)

func TestBatchAccountingMatchesPerRound(t *testing.T) {
	// The session's per-request step against the per-decision oracle,
	// compared after every batch so a maximum that a later, smaller batch
	// must not lower is seen not to move.
	var got tally
	var goodput metrics.Timer
	var late metrics.Counter
	rng := rand.New(rand.NewPCG(22, 7))
	const budget = int64(5 * time.Millisecond)

	// Each kind draws a decision's three latency parts; their sum against
	// the budget decides goodput or late.
	part := func(limit int64) (q, l, w int64) {
		return rng.Int64N(limit/2 + 1), rng.Int64N(limit/4 + 1), rng.Int64N(limit/4 + 1)
	}
	kinds := []struct {
		name    string
		stamped bool
		draw    func() (q, l, w int64)
	}{
		{"unstamped", false, func() (int64, int64, int64) { return part(3 * budget) }},
		{"all in deadline", true, func() (int64, int64, int64) { return part(budget) }},
		{"all late", true, func() (int64, int64, int64) { q, l, w := part(budget); return q + budget + 1, l, w }},
		{"mixed", true, func() (int64, int64, int64) { return part(3 * budget) }},
		{"on the deadline", true, func() (int64, int64, int64) { return budget - 2 + rng.Int64N(4), 0, 0 }},
		// After the kinds above have raised the maximum: it must stay.
		{"small after large", false, func() (int64, int64, int64) { return part(1000) }},
	}
	var singles, batches int64
	for round := 0; round < 40; round++ {
		for _, k := range kinds {
			start := testEpoch.Add(time.Duration(rng.Int64N(int64(time.Second))))
			var deadline time.Time
			if k.stamped {
				deadline = start.Add(time.Duration(budget))
			}
			out := make([]DecideResponse, 1+rng.IntN(256))
			for i := range out {
				out[i].QueueNS, out[i].LatencyNS, out[i].WaitedNS = k.draw()
				accountDeadlineEach(&goodput, &late, start, deadline, &out[i])
			}
			batch := rng.IntN(2) == 0
			got.account(start, deadline, out, batch)
			if batch {
				batches++
			} else {
				singles++
			}
			count, total, longest, lateN := got[tGoodput].Load(), time.Duration(got[tGoodputNS].Load()),
				time.Duration(got[tGoodputMaxNS].Load()), got[tLate].Load()
			if count != goodput.Count() || total != goodput.Total() || longest != goodput.Max() || lateN != late.Value() {
				t.Fatalf("round %d, %s, batch of %d: per-request count/total/max/late %d/%v/%v/%d, per-decision %d/%v/%v/%d",
					round, k.name, len(out), count, total, longest, lateN,
					goodput.Count(), goodput.Total(), goodput.Max(), late.Value())
			}
			if got[tSingles].Load() != singles || got[tBatches].Load() != batches {
				t.Fatalf("round %d, %s: singles/batches %d/%d, want %d/%d",
					round, k.name, got[tSingles].Load(), got[tBatches].Load(), singles, batches)
			}
		}
	}
	if goodput.Count() == 0 || late.Value() == 0 {
		t.Fatalf("fixture exercised one side only: %d goodput, %d late", goodput.Count(), late.Value())
	}
}

// TestDecidePathLeavesRegistryAlone: in-process decides — single, batch,
// stamped (some late) and admission-accepted — write nothing into the
// server's registry, while /metrics shows every one of them.
func TestDecidePathLeavesRegistryAlone(t *testing.T) {
	for _, adm := range []*admission.Config{nil, {InitialService: time.Nanosecond, MaxBacklog: 10 * time.Millisecond}} {
		srv := NewServer(Config{Clock: func() time.Time { return testEpoch }, Admission: adm})
		t.Cleanup(srv.StopSessions)
		for _, id := range []string{"t-reg-a", "t-reg-b"} {
			if _, err := srv.CreateSession(SessionRequest{ID: id, Endpoints: twoEndpoints(), Seed: 3}); err != nil {
				t.Fatal(err)
			}
		}
		before := srv.reg.Snapshot()

		var requests, batches, decisions, goodput, late int64
		count := func(deadline time.Time, out []DecideResponse) {
			requests++
			decisions += int64(len(out))
			for _, d := range out {
				if !deadline.IsZero() && d.QueueNS+d.LatencyNS+d.WaitedNS > int64(deadline.Sub(testEpoch)) {
					late++
				} else {
					goodput++
				}
			}
		}
		rounds := []Round{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
		out := make([]DecideResponse, len(rounds))
		for i, id := range []string{"t-reg-a", "t-reg-b", "t-reg-a"} {
			if err := srv.Decide(id, i%2, 1, &out[0]); err != nil {
				t.Fatal(err)
			}
			count(time.Time{}, out[:1])
			if err := srv.DecideBatch(id, rounds, out); err != nil {
				t.Fatal(err)
			}
			count(time.Time{}, out)
			batches++
			// Stamped: one budget every decision meets, and, without
			// admission to shed it, one already spent.
			budgets := []time.Duration{time.Second}
			if adm == nil {
				budgets = append(budgets, -time.Nanosecond)
			}
			for _, budget := range budgets {
				deadline := testEpoch.Add(budget)
				if err := srv.DecideBatchDeadline(id, deadline, rounds[:2+i], out); err != nil {
					t.Fatal(err)
				}
				count(deadline, out[:2+i])
				batches++
			}
		}
		if adm == nil && late == 0 {
			t.Fatal("fixture made no late decision")
		}

		if after := srv.reg.Snapshot(); !slices.Equal(after, before) {
			t.Fatalf("admission=%v: decides moved the registry:\nbefore %v\nafter  %v", adm != nil, before, after)
		}
		want := map[string]int64{
			"serve_decisions_total":      decisions,
			"serve_decide_batches_total": batches,
			"serve_goodput_count":        goodput,
			"serve_late_total":           late,
		}
		if adm != nil {
			want["admission_accepted_total"] = requests
		}
		m := scrape(srv)
		for key, v := range want {
			if got, ok := m[key]; !ok || int64(got) != v {
				t.Errorf("admission=%v: /metrics %s = %v (present %v), want %d", adm != nil, key, got, ok, v)
			}
		}
		if _, ok := m["admission_accepted_total"]; ok != (adm != nil) {
			t.Errorf("admission=%v: admission_accepted_total rendered %v", adm != nil, ok)
		}
	}
}

// TestTalliesSumUnderConcurrency: goroutines decide on sessions of their
// own while another creates sessions and scrapes /metrics. Every scrape
// must read a total no smaller than the last, and the final keys must
// equal the calls made.
func TestTalliesSumUnderConcurrency(t *testing.T) {
	clk := newManualClock(testEpoch)
	srv := NewServer(Config{Clock: clk.Now, Admission: &admission.Config{
		InitialService: time.Nanosecond,
		MaxBacklog:     time.Second,
	}})
	t.Cleanup(srv.StopSessions)
	const deciders, perDecider = 4, 300
	var wg sync.WaitGroup
	type calls struct{ requests, batches, decisions, shed int64 }
	made := make([]calls, deciders)
	for g := range made {
		id := fmt.Sprintf("t-sum-%d", g)
		if _, err := srv.CreateSession(SessionRequest{ID: id, Endpoints: twoEndpoints(), Seed: uint64(g + 1)}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &made[g]
			rounds := make([]Round, 8)
			out := make([]DecideResponse, len(rounds))
			for i := 0; i < perDecider; i++ {
				var err error
				n := 1 + i%len(rounds)
				if i%3 == 0 {
					err = srv.Decide(id, i%2, 0, &out[0])
					n = 1
				} else {
					err = srv.DecideBatch(id, rounds[:n], out)
				}
				var shed *ShedError
				switch {
				case errors.As(err, &shed):
					c.shed++
					continue
				case err != nil:
					t.Error(err)
					return
				}
				c.requests++
				c.decisions += int64(n)
				if i%3 != 0 {
					c.batches++
				}
				if i%50 == 0 {
					clk.Advance(20 * time.Microsecond)
				}
			}
		}()
	}
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		var last float64
		for i := 0; ; i++ {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			if _, err := srv.CreateSession(SessionRequest{ID: fmt.Sprintf("t-sum-idle-%d", i), Endpoints: twoEndpoints()}); err != nil {
				scraped <- err
				return
			}
			if got := scrape(srv)["serve_decisions_total"]; got < last {
				scraped <- fmt.Errorf("serve_decisions_total went %v → %v", last, got)
				return
			} else {
				last = got
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}

	var sum calls
	for _, c := range made {
		sum.requests += c.requests
		sum.batches += c.batches
		sum.decisions += c.decisions
		sum.shed += c.shed
	}
	m := scrape(srv)
	for key, want := range map[string]int64{
		"serve_decisions_total":      sum.decisions,
		"serve_decide_batches_total": sum.batches,
		"serve_goodput_count":        sum.decisions,
		"serve_late_total":           0,
		"admission_accepted_total":   sum.requests,
		"serve_sessions_active":      int64(srv.SessionCount()),
	} {
		if got := int64(m[key]); got != want {
			t.Errorf("/metrics %s = %d, want %d", key, got, want)
		}
	}
	if got := shedTotal(m); got != sum.shed {
		t.Errorf("/metrics sheds sum to %d, want %d", got, sum.shed)
	}
}
