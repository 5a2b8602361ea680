// Package suite defines the six workloads: how each generates its inputs
// from the seed, what one repetition of its fixed work is, and the oracle
// its simulated statistics are held to. Both binaries run workloads through
// it — the end-to-end one to time them, the traced one as the outermost
// depth of its onion replay.
//
// It binds only to the program's outermost surfaces (see the bound-symbol
// table in README.md), so it keeps building while the layers beneath are
// refactored.
package suite

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/loadtest"
)

// Env is what a workload's set-up is given.
type Env struct {
	Root  string  // checkout root: BENCHMARK.json, repro_output.txt, benchmark/
	Seed  uint64  // workload seed; every generated input derives from it
	Scale float64 // 1, or 1/20 under -short
	// UpdateGolden rewrites benchmark/golden/<workload>.json from the warm
	// repetition instead of comparing against it.
	UpdateGolden bool
}

// GoldenSeed is the seed the committed oracles were recorded at.
const GoldenSeed = 42

// pinned reports whether this run is the one the golden files describe.
func (e Env) pinned() bool { return e.Seed == GoldenSeed && e.Scale == 1 }

// virtual scales a virtual-time arrival window.
func (e Env) virtual(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.Scale)
}

// Sim is the simulated-clock outcome of one repetition. Every field is a
// pure function of the seed — none reads the host clock — so it is the
// oracle, and any two repetitions of one plan must produce equal values.
type Sim struct {
	Attempted int64 // operations issued
	Failed    int64 // operations that failed (admission sheds are refusals, not failures)
	Decisions int64 // decisions delivered in deadline: the numerator of decisions_per_s
	// Digest renders every simulated statistic of the repetition; timed
	// repetitions are compared against the warm one through it.
	Digest string
}

// Instance is a set-up workload: the fixed work as a closure, and the
// outcome every timed repetition must reproduce.
type Instance struct {
	Rep func() (Sim, error)
	// Warm is the warm repetition's outcome. A zero Digest means set-up ran
	// no warm repetition (repro_sweep at an unpinned seed): the first timed
	// repetition then sets the expectation for the rest.
	Warm Sim
	// Inputs identifies the generated inputs (plan size or hash) in
	// result.json.
	Inputs string
}

// Workload is one named set of inputs. Setup does everything that precedes
// the first timed repetition — generating inputs from the seed, loading and
// checking the oracle, the warm repetition — and its host time is setup_s.
type Workload struct {
	Name  string
	Setup func(Env) (*Instance, error)
}

// Workloads is the suite, in BENCHMARK.json order. Why each exists is
// recorded there and in README.md.
var Workloads = []Workload{
	virtualWorkload("decide_hot"),
	virtualWorkload("batch_hot"),
	{Name: "handler_mix", Setup: setupHandlerMix},
	virtualWorkload("supply_wide"),
	virtualWorkload("overload_shed"),
	{Name: "repro_sweep", Setup: setupReproSweep},
}

// virtualConfigs holds the plan configuration of each workload whose fixed
// work is one loadtest.RunVirtualPlan.
var virtualConfigs = map[string]func(Env) loadtest.Config{
	"decide_hot": func(e Env) loadtest.Config {
		return loadtest.Config{
			Seed:      e.Seed,
			Duration:  e.virtual(time.Second),
			TargetRPS: 5e5,
			Sessions:  8,
			Scenarios: []loadtest.Scenario{{Name: "decide", Weight: 1, Batch: 1}},
		}
	},
	"batch_hot": func(e Env) loadtest.Config {
		return loadtest.Config{
			Seed:      e.Seed,
			Duration:  e.virtual(time.Second),
			TargetRPS: 2e4,
			Sessions:  8,
			Scenarios: []loadtest.Scenario{
				{Name: "batch64", Weight: 0.8, Batch: 64},
				{Name: "batch256", Weight: 0.2, Batch: 256},
			},
		}
	},
	"supply_wide": func(e Env) loadtest.Config {
		return loadtest.Config{
			Seed:      e.Seed,
			Duration:  e.virtual(time.Second),
			TargetRPS: 2000,
			Sessions:  64,
			Scenarios: []loadtest.Scenario{{Name: "decide", Weight: 1, Batch: 1}},
		}
	},
	// The E21 3x-saturation configuration with a longer arrival window: the
	// frozen service model is 100µs/round, so capacity is 10k decisions/s
	// and 30k req/s offers three times that.
	"overload_shed": func(e Env) loadtest.Config {
		return loadtest.Config{
			Seed:           e.Seed,
			Duration:       e.virtual(10 * time.Second),
			TargetRPS:      30_000,
			Sessions:       1,
			Scenarios:      []loadtest.Scenario{{Name: "decide", Weight: 1, Batch: 1}},
			DeadlineBudget: 5 * time.Millisecond,
			Admission: &admission.Config{
				InitialService: 100 * time.Microsecond,
				MaxBacklog:     10 * time.Millisecond,
			},
		}
	},
}

// VirtualConfig returns the plan configuration of a RunVirtualPlan workload,
// or false for the two workloads that are not one. The traced pass rebuilds
// the same request sequence from it to replay it at inner depths.
func VirtualConfig(name string, e Env) (loadtest.Config, bool) {
	config, ok := virtualConfigs[name]
	if !ok {
		return loadtest.Config{}, false
	}
	return config(e), true
}

// virtualWorkload is a workload whose fixed work is one
// loadtest.RunVirtualPlan of a plan built from the seed: the plan's arrival
// schedule is the injected clock, the replay runs back-to-back on one
// goroutine, and the returned Result is simulated statistics only.
func virtualWorkload(name string) Workload {
	return Workload{Name: name, Setup: func(e Env) (*Instance, error) {
		cfg := virtualConfigs[name](e)
		plan, err := loadtest.BuildPlan(cfg)
		if err != nil {
			return nil, err
		}
		rep := func() (Sim, error) {
			res, err := loadtest.RunVirtualPlan(plan)
			if err != nil {
				return Sim{}, err
			}
			if err := checkResult(res, cfg.Scenarios); err != nil {
				return Sim{}, err
			}
			digest, err := res.MarshalIndent()
			if err != nil {
				return Sim{}, err
			}
			return Sim{
				Attempted: res.Requests,
				Failed:    res.Errors + res.Retryable + res.Transport,
				Decisions: res.InDeadline,
				Digest:    string(digest),
			}, nil
		}
		warm, err := rep()
		if err != nil {
			return nil, err
		}
		if err := checkGolden(e, name, []byte(warm.Digest+"\n")); err != nil {
			return nil, err
		}
		return &Instance{Rep: rep, Warm: warm, Inputs: fmt.Sprintf("%d requests", warm.Attempted)}, nil
	}}
}
