package main

// Layer: loadtest — the harness the four RunVirtualPlan workloads run
// through. Its plan keeps the request sequence private, so to replay a
// workload beneath the harness this file rebuilds the sequence from the same
// derived streams, and the replay's simulated statistics are then checked
// against RunVirtualPlan's own: a drifted copy cannot go unnoticed.

import (
	"fmt"
	"time"

	"repro/benchmark/benchlib"
	"repro/internal/admission"
	"repro/internal/loadtest"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// request is one arrival in the form every onion depth can replay.
type request struct {
	at      time.Duration
	session int
	rounds  []serve.Round // nil for a session-info poll
}

// plan is a serving workload's inputs: the session set and the open-loop
// arrival schedule in virtual time.
type plan struct {
	sessions  []serve.SessionRequest
	reqs      []request
	budget    time.Duration // deadline stamped on every decide; 0 = unstamped
	admission *admission.Config
}

// decisions returns how many rounds the plan asks for.
func (p *plan) decisions() int64 {
	var n int64
	for i := range p.reqs {
		n += int64(len(p.reqs[i].rounds))
	}
	return n
}

// maxBatch returns the largest batch in the plan (at least 1).
func (p *plan) maxBatch() int {
	n := 1
	for i := range p.reqs {
		if len(p.reqs[i].rounds) > n {
			n = len(p.reqs[i].rounds)
		}
	}
	return n
}

// planFromConfig rebuilds the request sequence loadtest.BuildPlan generates
// for cfg: Poisson arrivals, scenario picks, session routing and round
// inputs, each from its own xrand.Derive stream of the seed, and the session
// set RunVirtualPlan registers. Only what the suite's configurations use is
// covered — constant rate, fixed batch sizes.
func planFromConfig(cfg loadtest.Config) (*plan, error) {
	if cfg.Rate != nil {
		return nil, fmt.Errorf("plan replica: rate profiles are not covered")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1 // loadtest's own default
	}
	weights := make([]float64, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		if sc.HeavyTail != nil {
			return nil, fmt.Errorf("plan replica: heavy-tailed batches are not covered")
		}
		weights[i] = sc.Weight
	}
	arrivals := xrand.Derive(cfg.Seed, 1)
	scenarios := xrand.Derive(cfg.Seed, 2)
	sessions := xrand.Derive(cfg.Seed, 3)
	inputs := xrand.Derive(cfg.Seed, 4)

	p := &plan{budget: cfg.DeadlineBudget, admission: cfg.Admission}
	for i := 0; i < cfg.Sessions; i++ {
		p.sessions = append(p.sessions, serve.SessionRequest{
			ID:        fmt.Sprintf("lt-%03d", i),
			Seed:      xrand.Derive(cfg.Seed, uint64(100+i)).Uint64(),
			Endpoints: []string{fmt.Sprintf("lb-%03d-a", i), fmt.Sprintf("lb-%03d-b", i)},
		})
	}
	meanGap := float64(time.Second) / cfg.TargetRPS
	for at := time.Duration(0); ; {
		at += time.Duration(arrivals.ExpFloat64() * meanGap)
		if at >= cfg.Duration {
			break
		}
		sc := cfg.Scenarios[scenarios.Categorical(weights)]
		r := request{at: at, session: sessions.IntN(cfg.Sessions)}
		if !sc.Info {
			n := sc.Batch
			if n < 1 {
				n = 1
			}
			r.rounds = make([]serve.Round, n)
			for i := range r.rounds {
				r.rounds[i] = serve.Round{X: inputs.IntN(2), Y: inputs.IntN(2)}
			}
		}
		p.reqs = append(p.reqs, r)
	}
	return p, nil
}

// planFromMix converts the handler_mix plan.
func planFromMix(mix *benchlib.Mix) *plan {
	p := &plan{}
	for _, s := range mix.Sessions {
		p.sessions = append(p.sessions, serve.SessionRequest{ID: s.ID, Endpoints: s.Endpoints, Seed: s.Seed})
	}
	for i := range mix.Ops {
		op := &mix.Ops[i]
		r := request{at: op.At, session: op.Session}
		if op.Kind != benchlib.OpInfo {
			r.rounds = make([]serve.Round, len(op.Rounds))
			for j, rd := range op.Rounds {
				r.rounds[j] = serve.Round{X: int(rd.X), Y: int(rd.Y)}
			}
		}
		p.reqs = append(p.reqs, r)
	}
	return p
}

// probeLoadtest measures the harness's own share: plan building per
// request, and the recorder's cost per decision as RunVirtualPlan minus the
// bare in-process replay of the same single-decide plan.
func probeLoadtest(m values, unit time.Duration) error {
	cfg := loadtest.Config{
		Seed: 7, Duration: 100 * time.Millisecond, TargetRPS: 5e5, Sessions: 8,
		Scenarios: []loadtest.Scenario{{Name: "decide", Weight: 1, Batch: 1}},
	}
	var built *loadtest.Plan
	var buildErr error
	perPlan := perOp(2*unit, 1, func(int) { built, buildErr = loadtest.BuildPlan(cfg) })
	if buildErr != nil {
		return buildErr
	}
	m["loadtest.build_plan_ns_per_req"] = perPlan / float64(built.Requests())

	replica, err := planFromConfig(cfg)
	if err != nil {
		return err
	}
	var harness, bare []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := loadtest.RunVirtualPlan(built)
		if err != nil {
			return err
		}
		harness = append(harness, float64(time.Since(start)))
		d1, err := replayServe(replica, nil, nil)
		if err != nil {
			return err
		}
		if d1.decisions != res.Decisions || d1.wins != res.Wins {
			return fmt.Errorf("loadtest probe: replica played %d decisions / %d wins, RunVirtualPlan %d / %d",
				d1.decisions, d1.wins, res.Decisions, res.Wins)
		}
		bare = append(bare, float64(d1.elapsed))
	}
	m["loadtest.recorder_ns_per_decision"] = (benchlib.Median(harness) - benchlib.Median(bare)) / float64(replica.decisions())
	return nil
}
