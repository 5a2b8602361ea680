package main

import (
	"math"
	"testing"

	"repro/internal/games"
)

// TestPlansRejectBadInput pins the inputs that used to hang (a step that
// never reaches p = 1), print an empty interval for every point (no
// trials), or panic (negative trials, a single vertex, more vertices than
// the exact classical value enumerates).
func TestPlansRejectBadInput(t *testing.T) {
	for _, tc := range []struct {
		name     string
		vertices int
		trials   int
		step     float64
	}{
		{"step zero", 5, 10, 0},
		{"step negative", 5, 10, -0.1},
		{"step NaN", 5, 10, math.NaN()},
		{"step above one", 5, 10, 1.5},
		{"trials zero", 5, 0, 0.5},
		{"trials negative", 5, -1, 0.5},
		{"one vertex", 1, 10, 0.5},
		{"25 vertices", games.MaxEnumInputs + 1, 1, 1},
	} {
		if _, err := probabilitySweepPlan(tc.vertices, tc.trials, tc.step, 2, false); err == nil {
			t.Errorf("%s: probabilitySweepPlan(%d, %d, %g) accepted", tc.name, tc.vertices, tc.trials, tc.step)
		}
	}
	for _, trials := range []int{0, -1} {
		if _, err := vertexSweepPlan(trials, 2); err == nil {
			t.Errorf("vertexSweepPlan(%d) accepted", trials)
		}
	}
}

func TestPlansAcceptBoundaries(t *testing.T) {
	for _, tc := range []struct {
		step   float64
		points int
	}{
		{1, 2},     // p = 0, 1
		{0.5, 3},   // p = 0, 0.5, 1
		{0.05, 21}, // the default
	} {
		sw, err := probabilitySweepPlan(2, 1, tc.step, 2, false)
		if err != nil {
			t.Fatalf("step %g: %v", tc.step, err)
		}
		if len(sw.points) != tc.points {
			t.Fatalf("step %g: %d points, want %d", tc.step, len(sw.points), tc.points)
		}
	}
	if _, err := vertexSweepPlan(1, 2); err != nil {
		t.Fatalf("vertexSweepPlan(1): %v", err)
	}
}
