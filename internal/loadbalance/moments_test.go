package loadbalance

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestRunMomentsMatchFloatChain pins RunE's exact integer moments against
// the per-sample float Welford chain they replaced (runFloatMoments), below,
// at and past the knee, under three disciplines. Count, min and max
// must be equal; the mean must be the float64 nearest Σx/n; mean and
// standard deviation may differ from the float chain only by its rounding,
// and not in any digit E3 or qlbsim prints.
//
// Mutants killed: sampling queue lengths in warm-up slots; a delay off by
// one slot; dropping the class partner's delay under BatchSameClassC.
func TestRunMomentsMatchFloatChain(t *testing.T) {
	for _, tc := range []struct {
		load float64
		d    Discipline
	}{{0.8, BatchCFirst}, {1.1, BatchCFirst}, {1.3, FIFOBatch}, {1.2, BatchSameClassC}} {
		t.Run(fmt.Sprintf("%v/%.1f", tc.d, tc.load), func(t *testing.T) {
			cfg := Config{
				NumBalancers: 40, NumServers: serversForLoad(40, tc.load),
				Warmup: 300, Slots: 3000, Discipline: tc.d,
				Workload: workload.MultiClass{Weights: []float64{1, 1, 1},
					ClassTypes: []workload.TaskType{workload.TypeC, workload.TypeE, workload.TypeC}},
				Seed: 13,
			}
			strat := func() Strategy { return NewQuantumPairedStrategy(1.0, xrand.New(13, 3)) }
			res := Run(cfg, strat())
			fq, fd, qs, ds := runFloatMoments(cfg, strat())
			check := func(name string, got, float stats.Welford, xs []int64) {
				t.Helper()
				if got.Count() != float.Count() || got.Min() != float.Min() || got.Max() != float.Max() {
					t.Fatalf("%s count/min/max %d/%v/%v, float chain %d/%v/%v",
						name, got.Count(), got.Min(), got.Max(), float.Count(), float.Min(), float.Max())
				}
				sum := new(big.Int)
				for _, x := range xs {
					sum.Add(sum, big.NewInt(x))
				}
				if exact, _ := new(big.Rat).SetFrac(sum, big.NewInt(int64(len(xs)))).Float64(); got.Mean() != exact {
					t.Fatalf("%s mean %v, exact %v", name, got.Mean(), exact)
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
			check("queue length", res.QueueLen, fq, qs)
			check("delay", res.Delay, fd, ds)
		})
	}
}
