package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/loadtest"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The committed sections run in VIRTUAL mode: the open-loop plan drives an
// in-process serve.Server on the plan's own arrival schedule and the
// recorded latency is the simulated decision latency (quantum measurement +
// pool wait), so the entire report is a pure function of the seed. Wall
// throughput of the real HTTP stack is measured by benchmark/ because wall
// numbers are measurements, not functions, and cannot be committed as bytes.
//
// -loadtest-wall appends an uncommitted wall-mode section against a live
// loopback server for ad-hoc inspection.

// loadtestRun is one scenario-mix execution in the report.
type loadtestRun struct {
	Name string `json:"name"`
	// DurationMS / TargetRPS / Sessions echo the config so the report is
	// self-describing.
	DurationMS float64 `json:"duration_ms"`
	TargetRPS  float64 `json:"target_rps"`
	// Rate is the non-stationary intensity profile, when one replaces the
	// constant TargetRPS (absent for the stationary sections, which keeps
	// their committed bytes untouched).
	Rate      *workload.RateProfile `json:"rate,omitempty"`
	Sessions  int                   `json:"sessions"`
	Scenarios []loadtest.Scenario   `json:"scenarios"`
	Result    *loadtest.Result      `json:"result"`
}

// loadtestReport is the BENCH_loadtest.json schema.
type loadtestReport struct {
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// Virtual runs are deterministic: byte-identical across reruns and
	// machines at a fixed seed.
	Virtual []loadtestRun `json:"virtual"`
	// Overload is the goodput-vs-offered-load curve: the same
	// deadline-stamped workload at 1×/2×/3× saturation against an
	// admission-controlled server, virtual-time and committed. The
	// interesting read is GoodputPerSec staying flat while Shed grows.
	Overload []loadtestRun `json:"overload"`
	// Wall runs are real measurements (present only with -loadtest-wall;
	// never committed).
	Wall []loadtestRun `json:"wall,omitempty"`
}

// loadtestConfigs is the committed matrix. Pair provisioning matters as
// much as arrival rate here: with the default QNIC (100 µs storage limit) a
// source at rate R holds only ~R·100µs fresh pairs, so a batch landing at
// one instant beyond that count falls back to classical for its tail.
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
func loadtestConfigs(seed uint64) []struct {
	name string
	cfg  loadtest.Config
} {
	provisioned := serve.SessionRequest{PairRate: 1e6, PoolCap: 512}
	return []struct {
		name string
		cfg  loadtest.Config
	}{
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

// overloadConfigs is the goodput-vs-offered-load curve: a decide-only
// stream with a 5ms deadline budget against an admission-controlled server
// whose frozen-EWMA service model is 100µs/round (capacity exactly 10k
// decisions/s on the virtual clock), at 1×, 2× and 3× saturation. Same
// model as internal/loadtest's TestOverloadGoodputHolds — the committed
// curve is the experiment (EXPERIMENTS.md E21), the test is the gate.
func overloadConfigs(seed uint64) []struct {
	name string
	cfg  loadtest.Config
} {
	var out []struct {
		name string
		cfg  loadtest.Config
	}
	for i, mult := range []float64{1, 2, 3} {
		out = append(out, struct {
			name string
			cfg  loadtest.Config
		}{
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

// runLoadtestBench produces BENCH_loadtest.json.
func runLoadtestBench(path string, seed uint64, wall bool) {
	rep := loadtestReport{Bench: "loadtest", Seed: seed}

	for _, c := range loadtestConfigs(seed) {
		res, err := loadtest.RunVirtual(c.cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: loadtest %s: %v\n", c.name, err)
			os.Exit(1)
		}
		rep.Virtual = append(rep.Virtual, describeRun(c.name, c.cfg, res))
		fmt.Fprintf(os.Stderr, "loadtest %-12s %7d req %8d decisions  p50 %6dns  p99 %7dns  p999 %7dns  win %.3f\n",
			c.name, res.Requests, res.Decisions, res.Latency.P50NS, res.Latency.P99NS, res.Latency.P999NS, res.WinRate)
	}

	for _, c := range overloadConfigs(seed) {
		res, err := loadtest.RunVirtual(c.cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: loadtest %s: %v\n", c.name, err)
			os.Exit(1)
		}
		rep.Overload = append(rep.Overload, describeRun(c.name, c.cfg, res))
		fmt.Fprintf(os.Stderr, "loadtest %-12s %7d req %7d shed  goodput %8.0f/s  p999 %7dns  max %7dns\n",
			c.name, res.Requests, res.Shed, res.GoodputPerSec, res.Latency.P999NS, res.Latency.MaxNS)
	}

	if wall {
		srv := serve.NewServer(serve.Config{})
		ts := httptest.NewServer(srv)
		for _, c := range loadtestConfigs(seed) {
			if c.name == "saturation" {
				// 20k wall RPS through one loopback client is a socket
				// benchmark, not a serving measurement; skip it here.
				continue
			}
			res, err := loadtest.RunWall(c.cfg, loadtest.WallOptions{Client: serve.NewClient(ts.URL)})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: loadtest wall %s: %v\n", c.name, err)
				os.Exit(1)
			}
			rep.Wall = append(rep.Wall, describeRun(c.name, c.cfg, res))
			fmt.Fprintf(os.Stderr, "loadtest %-12s (wall) %7d req  p50 %7dns  p99 %8dns  %.0f decisions/s\n",
				c.name, res.Requests, res.Latency.P50NS, res.Latency.P99NS, res.DecisionsPerSec)
		}
		ts.Close()
		srv.StopSessions()
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if path == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
}

// describeRun pairs a config with its result, filling defaulted fields so
// the report is self-describing.
func describeRun(name string, cfg loadtest.Config, res *loadtest.Result) loadtestRun {
	scen := cfg.Scenarios
	if len(scen) == 0 {
		scen = loadtest.DefaultScenarios()
	}
	sessions := cfg.Sessions
	if sessions <= 0 {
		sessions = 4
	}
	return loadtestRun{
		Name:       name,
		DurationMS: ms(cfg.Duration),
		TargetRPS:  cfg.TargetRPS,
		Rate:       cfg.Rate,
		Sessions:   sessions,
		Scenarios:  scen,
		Result:     res,
	}
}
