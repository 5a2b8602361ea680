package loadbalance

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestRunMomentsMatchFloatChain pins RunE's per-slot folds against the
// per-sample replay runFloatMoments keeps as their oracle, below, at and past
// the knee, under every discipline, with and without warm-up and with and
// without a Recorder. Result.QueueLen and Result.Delay must be bit for bit
// what a per-sample IntMoments makes of the oracle's samples (count, mean,
// variance, min, max); Arrived, Served and QueuedAtEnd must equal the
// oracle's. Mean and standard deviation may differ from the oracle's float
// Welford chain only by its rounding, and not in any digit E3 or qlbsim
// prints.
//
// Mutants killed: sampling queue lengths in warm-up slots; a delay off by
// one slot; dropping the class partner's delay under BatchSameClassC; the
// skipped empty servers also dropped from the queue moments; the delay fold
// applied outside the measured window; the last slot not folded.
func TestRunMomentsMatchFloatChain(t *testing.T) {
	for _, tc := range []struct {
		load float64
		d    Discipline
	}{
		{0.8, BatchCFirst}, {1.1, BatchCFirst}, {1.0, SingleCFirst},
		{1.3, FIFOBatch}, {1.1, EFirst}, {1.2, BatchSameClassC},
	} {
		t.Run(fmt.Sprintf("%v/%.1f", tc.d, tc.load), func(t *testing.T) {
			for _, warmup := range []int{0, 300} {
				for _, recorded := range []bool{false, true} {
					t.Run(fmt.Sprintf("warmup=%d/recorder=%v", warmup, recorded), func(t *testing.T) {
						checkRunMoments(t, tc.load, tc.d, warmup, recorded)
					})
				}
			}
		})
	}
}

func checkRunMoments(t *testing.T, load float64, d Discipline, warmup int, recorded bool) {
	cfg := Config{
		NumBalancers: 40, NumServers: serversForLoad(40, load),
		Warmup: warmup, Slots: 3000, Discipline: d,
		Workload: workload.MultiClass{Weights: []float64{1, 1, 1},
			ClassTypes: []workload.TaskType{workload.TypeC, workload.TypeE, workload.TypeC}},
		Seed: 13,
	}
	strat := func() Strategy { return NewQuantumPairedStrategy(1.0, xrand.New(13, 3)) }
	want := runFloatMoments(cfg, strat())
	if recorded {
		cfg.Recorder = &SlotSeries{}
	}
	res := Run(cfg, strat())
	if res.Arrived != want.arrived || res.Served != want.served || res.QueuedAtEnd != want.queuedAtEnd {
		t.Fatalf("arrived/served/queued %d/%d/%d, oracle %d/%d/%d",
			res.Arrived, res.Served, res.QueuedAtEnd, want.arrived, want.served, want.queuedAtEnd)
	}
	check := func(name string, got, float stats.Welford, xs []int64) {
		t.Helper()
		var m stats.IntMoments
		for _, x := range xs {
			m.Add(x)
		}
		exact := m.Welford()
		if got.Count() != exact.Count() || got.Mean() != exact.Mean() || got.Variance() != exact.Variance() ||
			got.Min() != exact.Min() || got.Max() != exact.Max() {
			t.Fatalf("%s count/mean/var/min/max %d/%v/%v/%v/%v, per-sample %d/%v/%v/%v/%v", name,
				got.Count(), got.Mean(), got.Variance(), got.Min(), got.Max(),
				exact.Count(), exact.Mean(), exact.Variance(), exact.Min(), exact.Max())
		}
		for _, p := range [][2]float64{{got.Mean(), float.Mean()}, {got.StdDev(), float.StdDev()}} {
			if math.Abs(p[0]-p[1]) > 1e-9*math.Abs(p[1]) {
				t.Fatalf("%s moments %v, float chain %v", name, p[0], p[1])
			}
		}
		for _, f := range []string{"%.2f ±%.2f", "%.4f ±%.4f"} {
			if a, b := fmt.Sprintf(f, got.Mean(), got.CI95()), fmt.Sprintf(f, float.Mean(), float.CI95()); a != b {
				t.Fatalf("%s prints %s, float chain %s", name, a, b)
			}
		}
	}
	check("queue length", res.QueueLen, want.qlen, want.qs)
	check("delay", res.Delay, want.delay, want.ds)
}
