package parallel

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got := MapN(workers, 50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapWorkerCountInvariance(t *testing.T) {
	// The canonical usage pattern: one base seed, per-job derived streams.
	job := func(i int) float64 {
		rng := xrand.Derive(99, uint64(i))
		s := 0.0
		for k := 0; k < 100; k++ {
			s += rng.Float64()
		}
		return s
	}
	serial := MapN(1, 64, job)
	for _, workers := range []int{2, 4, 16} {
		par := MapN(workers, 64, job)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result %d differs: %v vs %v", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestForEachRunsEveryJobExactlyOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int64
	ForEachN(7, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestForEachZeroAndNegativeJobs(t *testing.T) {
	ran := false
	ForEachN(0, 0, func(int) { ran = true })
	ForEachN(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("jobs ran for empty fan-out")
	}
}

func TestNestedFanOutDoesNotDeadlock(t *testing.T) {
	got := MapN(4, 8, func(i int) int {
		inner := MapN(4, 8, func(j int) int { return i*8 + j })
		s := 0
		for _, v := range inner {
			s += v
		}
		return s
	})
	want := 0
	for i := 0; i < 64; i++ {
		want += i
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != want {
		t.Fatalf("nested fan-out sum %d, want %d", total, want)
	}
}

func TestPanicPropagatesWithLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if workers == 1 {
					// Serial fast path re-raises natively.
					if r != "boom-3" {
						t.Fatalf("serial panic %v", r)
					}
					return
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
					t.Fatalf("workers=%d: panic %v lost the cause", workers, r)
				}
			}()
			ForEachN(workers, 10, func(i int) {
				if i == 3 {
					panic("boom-3")
				}
			})
		}()
	}
}
