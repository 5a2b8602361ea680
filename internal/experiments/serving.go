package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/admission"
	"repro/internal/loadtest"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serving artifact (BENCH_loadtest.json at seed 42) is E18's six traffic
// mixes plus E21's goodput-vs-offered-load curve. Every run is VIRTUAL: the
// open-loop plan drives an in-process serve.Server on the plan's own arrival
// schedule and the recorded latency is the simulated decision latency
// (quantum measurement + pool wait), so the whole report is a pure function
// of the seed. Wall throughput of the real HTTP stack is benchmark/'s job:
// wall numbers are measurements, not functions, and cannot be committed as
// bytes.

// servingRun is one named load-test configuration of the artifact.
type servingRun struct {
	name string
	cfg  loadtest.Config
}

// servingRow is one run as the report prints it.
type servingRow struct {
	Name string `json:"name"`
	// DurationMS / TargetRPS / Sessions echo the config so the report is
	// self-describing.
	DurationMS float64 `json:"duration_ms"`
	TargetRPS  float64 `json:"target_rps"`
	// Rate is the non-stationary intensity profile, when one replaces the
	// constant TargetRPS (absent for the stationary sections).
	Rate      *workload.RateProfile `json:"rate,omitempty"`
	Sessions  int                   `json:"sessions"`
	Scenarios []loadtest.Scenario   `json:"scenarios"`
	Result    *loadtest.Result      `json:"result"`
}

// servingReport is the BENCH_loadtest.json schema.
type servingReport struct {
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// Virtual is E18: the traffic mixes.
	Virtual []servingRow `json:"virtual"`
	// Overload is E21: the same deadline-stamped workload at 1×/2×/3×
	// saturation against an admission-controlled server. The interesting
	// read is GoodputPerSec staying flat while Shed grows.
	Overload []servingRow `json:"overload"`
}

// servingMixes is E18's matrix. Pair provisioning matters as much as
// arrival rate here: with the default QNIC (100 µs storage limit) a source at
// rate R holds only ~R·100µs fresh pairs, so a batch landing at one instant
// beyond that count falls back to classical for its tail.
//
//   - nominal: default mix against a well-provisioned source (1e6 pairs/s →
//     ~100 stored) — batches fit the stored budget, play stays quantum.
//   - saturation: same mix at 10× the arrival rate against the default
//     source (1e5 pairs/s) — decision demand ≈ supply, sessions hover at
//     the critical visibility and the report shows the fallback tail.
//   - batch-heavy: 64- and 256-round batches against the well-provisioned
//     source — batch64 fits the ~100-pair budget, batch256 overruns it, so
//     one run exhibits both regimes side by side.
//   - diurnal: the default mix under a sinusoidal intensity profile (2000
//     RPS ± 60% over 500 ms) — the peak phases press toward the saturation
//     regime while the troughs recover, all in one deterministic run.
//   - flash-crowd: a 1500 RPS baseline hit at t=1s by a 6× spike decaying
//     over 100 ms against the default (1e5 pairs/s) source — the burst
//     drains the pool and the report shows the fallback tail it causes.
//   - heavy-tail: request sizes drawn from a truncated Pareto (shape 1.2,
//     scale 2, cap 256) — most requests are small but the tail carries
//     batch256-class work, the open-loop analogue of batch-heavy.
func servingMixes(seed uint64) []servingRun {
	provisioned := serve.SessionRequest{PairRate: 1e6, PoolCap: 512}
	return []servingRun{
		{"nominal", loadtest.Config{
			Seed:            seed,
			Duration:        2 * time.Second,
			TargetRPS:       2000,
			Sessions:        4,
			SessionTemplate: provisioned,
		}},
		{"saturation", loadtest.Config{
			Seed:      seed + 1,
			Duration:  2 * time.Second,
			TargetRPS: 20000,
			Sessions:  4,
		}},
		{"batch-heavy", loadtest.Config{
			Seed:      seed + 2,
			Duration:  2 * time.Second,
			TargetRPS: 1000,
			Sessions:  4,
			Scenarios: []loadtest.Scenario{
				{Name: "batch64", Weight: 0.7, Batch: 64},
				{Name: "batch256", Weight: 0.2, Batch: 256},
				{Name: "info", Weight: 0.1, Info: true},
			},
			SessionTemplate: provisioned,
		}},
		{"diurnal", loadtest.Config{
			Seed:            seed + 3,
			Duration:        2 * time.Second,
			Rate:            workload.DiurnalProfile(2000, 0.6, 500*time.Millisecond),
			Sessions:        4,
			SessionTemplate: provisioned,
		}},
		{"flash-crowd", loadtest.Config{
			Seed:     seed + 4,
			Duration: 2 * time.Second,
			Rate:     workload.FlashProfile(1500, time.Second, 6, 100*time.Millisecond),
			Sessions: 4,
		}},
		{"heavy-tail", loadtest.Config{
			Seed:      seed + 5,
			Duration:  2 * time.Second,
			TargetRPS: 1000,
			Sessions:  4,
			Scenarios: []loadtest.Scenario{
				{Name: "decide", Weight: 0.6, Batch: 1},
				{Name: "heavy", Weight: 0.3, HeavyTail: &loadtest.HeavyTailBatch{Shape: 1.2, Scale: 2, Max: 256}},
				{Name: "info", Weight: 0.1, Info: true},
			},
			SessionTemplate: provisioned,
		}},
	}
}

// overloadCurve is E21: a decide-only stream with a 5ms deadline budget
// against an admission-controlled server whose frozen-EWMA service model is
// 100µs/round (capacity exactly 10k decisions/s on the virtual clock), at 1×,
// 2× and 3× saturation. Same model as internal/loadtest's
// TestOverloadGoodputHolds — the committed curve is the experiment, the test
// is the gate.
func overloadCurve(seed uint64) []servingRun {
	var out []servingRun
	for i, mult := range []float64{1, 2, 3} {
		out = append(out, servingRun{
			fmt.Sprintf("overload-%dx", int(mult)),
			loadtest.Config{
				Seed:           seed + uint64(10+i),
				Duration:       time.Second,
				TargetRPS:      10_000 * mult,
				Sessions:       1,
				Scenarios:      []loadtest.Scenario{{Name: "decide", Weight: 1, Batch: 1}},
				DeadlineBudget: 5 * time.Millisecond,
				Admission: &admission.Config{
					InitialService: 100 * time.Microsecond,
					MaxBacklog:     10 * time.Millisecond,
				},
			},
		})
	}
	return out
}

// WriteServingJSON writes the serving artifact for o.Seed (o.Scale is
// ignored): E18's traffic mixes and E21's overload curve as indented JSON.
// The nine runs are independent — each builds its own servers and derives
// every draw from its own seed — so they fan out on o.Workers goroutines,
// each replaying its sessions o.Workers wide, and the bytes are identical at
// any width.
func WriteServingJSON(w io.Writer, o Options) error {
	seed := o.Seed
	mixes := servingMixes(seed)
	runs := append(mixes, overloadCurve(seed)...)
	type outcome struct {
		res *loadtest.Result
		err error
	}
	done := parallel.MapN(o.Workers, len(runs), func(i int) outcome {
		cfg := runs[i].cfg
		cfg.Workers = o.Workers
		res, err := loadtest.RunVirtual(cfg)
		return outcome{res, err}
	})
	rows := make([]servingRow, len(runs))
	for i, r := range runs {
		if done[i].err != nil {
			return fmt.Errorf("serving %s: %w", r.name, done[i].err)
		}
		scen := r.cfg.Scenarios
		if len(scen) == 0 {
			scen = loadtest.DefaultScenarios()
		}
		rows[i] = servingRow{
			Name:       r.name,
			DurationMS: float64(r.cfg.Duration) / float64(time.Millisecond),
			TargetRPS:  r.cfg.TargetRPS,
			Rate:       r.cfg.Rate,
			Sessions:   r.cfg.Sessions,
			Scenarios:  scen,
			Result:     done[i].res,
		}
	}
	enc, err := json.MarshalIndent(servingReport{
		Bench:    "loadtest",
		Seed:     seed,
		Virtual:  rows[:len(mixes)],
		Overload: rows[len(mixes):],
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}
