package suite

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/loadtest"
)

// checkGolden compares got with benchmark/golden/<Workload>.json when the
// run is the pinned one (seed 42, full size); other runs are covered by the
// invariants alone. With -update-golden the pinned run rewrites the file.
func checkGolden(e Env, Workload string, got []byte) error {
	if !e.pinned() {
		return nil
	}
	path := filepath.Join(e.Root, "benchmark", "golden", Workload+".json")
	if e.UpdateGolden {
		return os.WriteFile(path, got, 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("oracle: simulated statistics differ from %s (rerun with -update-golden only if the change in behaviour is intended)\n--- got\n%s", path, got)
	}
	return nil
}

// Physical bounds on the colocation game every serving Workload plays: no
// strategy the ladder can pick beats Tsirelson's cos²(π/8), and the rungs it
// falls back to (re-optimized, best classical) hold the classical ¾.
var (
	quantumBound   = math.Pow(math.Cos(math.Pi/8), 2)
	classicalFloor = 0.75
)

// checkWinRate bounds a win count over n rounds: at most hi + 4σ, and at
// least lo − 4σ, with σ the binomial deviation at the bound.
func checkWinRate(what string, wins, n int64, lo, hi float64) error {
	if n == 0 {
		return nil
	}
	rate := float64(wins) / float64(n)
	sigma := func(p float64) float64 { return math.Sqrt(p * (1 - p) / float64(n)) }
	if rate > hi+4*sigma(hi) {
		return fmt.Errorf("oracle: %s win rate %.4f over %d rounds exceeds %.4f + 4σ", what, rate, n, hi)
	}
	if rate < lo-4*sigma(lo) {
		return fmt.Errorf("oracle: %s win rate %.4f over %d rounds is below %.4f − 4σ", what, rate, n, lo)
	}
	return nil
}

// checkResult holds a virtual-plan Result to the invariants that are true
// at any seed: every request is accounted for as served, shed or failed
// (per scenario, where the batch size is known), delivered decisions split
// exactly into in-deadline and late, and the win rate sits between the
// classical floor and the quantum bound.
func checkResult(res *loadtest.Result, scenarios []loadtest.Scenario) error {
	if len(res.Scenarios) != len(scenarios) {
		return fmt.Errorf("oracle: result has %d scenarios, plan has %d", len(res.Scenarios), len(scenarios))
	}
	for i, sr := range res.Scenarios {
		batch := int64(scenarios[i].Batch)
		if batch < 1 {
			batch = 1
		}
		refused := sr.Shed + sr.Errors + sr.Retryable + sr.Transport
		if sr.Decisions != (sr.Requests-refused)*batch {
			return fmt.Errorf("oracle: scenario %s: %d requests − %d shed or failed should deliver %d decisions, got %d",
				sr.Name, sr.Requests, refused, (sr.Requests-refused)*batch, sr.Decisions)
		}
	}
	if res.Decisions != res.InDeadline+res.Late {
		return fmt.Errorf("oracle: %d decisions ≠ %d in deadline + %d late", res.Decisions, res.InDeadline, res.Late)
	}
	return checkWinRate("overall", res.Wins, res.Decisions, classicalFloor, quantumBound)
}
