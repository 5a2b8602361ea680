package games

import (
	"slices"
	"testing"
)

// TestAdvantageCensusWorkerInvariance: the class solves fan out over the
// pool, and the counts are the same at any worker count, each run cold.
func TestAdvantageCensusWorkerInvariance(t *testing.T) {
	ResetSolveCache()
	want := AdvantageCensus(6, 1)
	for _, workers := range []int{2, 8} {
		ResetSolveCache()
		if got := AdvantageCensus(6, workers); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: %v, workers=1: %v", workers, got, want)
		}
	}
}

// TestAdvantageCensusColdVsWarmCache confirms the solve cache is
// semantically invisible: the counts are the same whether every class solve
// is a miss or a hit.
func TestAdvantageCensusColdVsWarmCache(t *testing.T) {
	ResetSolveCache()
	cold := AdvantageCensus(6, 0)
	warm := AdvantageCensus(6, 0)
	if !slices.Equal(cold, warm) {
		t.Fatalf("cache changed results: cold %v, warm %v", cold, warm)
	}
}
