package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestBatchAccountingMatchesPerRound(t *testing.T) {
	// Same instruments, two writers: the per-request pass against the
	// per-decision oracle, compared after every batch so a maximum that a
	// later, smaller batch must not lower is seen not to move.
	srv := &Server{mGoodput: new(metrics.Timer), mLate: new(metrics.Counter)}
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
			srv.accountDeadline(start, deadline, out)
			if srv.mGoodput.Count() != goodput.Count() || srv.mGoodput.Total() != goodput.Total() ||
				srv.mGoodput.Max() != goodput.Max() || srv.mLate.Value() != late.Value() {
				t.Fatalf("round %d, %s, batch of %d: per-request count/total/max/late %d/%v/%v/%d, per-decision %d/%v/%v/%d",
					round, k.name, len(out),
					srv.mGoodput.Count(), srv.mGoodput.Total(), srv.mGoodput.Max(), srv.mLate.Value(),
					goodput.Count(), goodput.Total(), goodput.Max(), late.Value())
			}
		}
	}
	if goodput.Count() == 0 || late.Value() == 0 {
		t.Fatalf("fixture exercised one side only: %d goodput, %d late", goodput.Count(), late.Value())
	}
}
