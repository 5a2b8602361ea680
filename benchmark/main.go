// Command benchmark (qbench) is the repository's measuring stick: six
// fixed-work workloads timed in host seconds, with the simulated statistics
// each produces as the oracle. See README.md for the metric and workload
// tables and BENCHMARK.json for the contract this binary emits against.
//
// Through ./suite it binds only to the program's outermost surfaces —
// serve.{NewServer, Config, SessionRequest}, (*Server).{ServeHTTP,
// CreateSession, StopSessions}, the HTTP JSON wire format, loadtest.{Config,
// Scenario, BuildPlan, RunVirtualPlan, Result}, admission.Config and the
// cmd/repro command line — so it keeps building while the layers beneath
// are refactored. Everything that reaches into a layer lives in ./trace.
//
// Run it through run.sh, which builds this binary, ./trace, cmd/repro and
// cmd/qcoordd into benchmark/out/bin first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
)

// setupRounds is how many times a run sets its workload up; setup_s is the
// median, so one slow page-in does not read as a set-up regression.
const setupRounds = 3

// fastDecile is the quantile of a run's repetitions that wall_s reports (and,
// mirrored, decisions_per_s). The repetitions are the same deterministic
// work, so what separates them is the box: on this shared 2-vCPU guest whole
// seconds run 20–40 % slow while the register-only canary does not move, and
// interference only ever adds time. Across ten-run sets the first decile
// spread 7–10 % where the median spread 7–17 %; the minimum was no steadier
// and hangs on one sample. Every sample is in result.json.
const fastDecile = 0.10

// report is one workload's run, as written to result.json.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Inputs   string  `json:"inputs"`
	Seconds  float64 `json:"seconds"`
	// Host-clock samples: every set-up and every timed repetition.
	SetupS        []float64 `json:"setup_s_all"`
	WallS         []float64 `json:"wall_s_all"`
	DecisionsPerS []float64 `json:"decisions_per_s_all"`
	// Simulated-clock outcome of one repetition (identical for all of them).
	Sim       string             `json:"simulated"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runWorkload sets w up, repeats its fixed work for about seconds of host
// time, and checks every repetition against the warm one.
func runWorkload(e suite.Env, w suite.Workload, seconds float64) (*report, error) {
	rep := &report{Workload: w.Name, Seed: e.Seed, Seconds: seconds, Correct: true}

	var inst *suite.Instance
	for i := 0; i < setupRounds; i++ {
		inst = nil
		runtime.GC() // the previous round's plan is garbage; do not bill its collection to this one
		start := time.Now()
		var err error
		if inst, err = w.Setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	}
	rep.Inputs = inst.Inputs
	want := inst.Warm

	runtime.GC()
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	for {
		start := time.Now()
		got, err := inst.Rep()
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.Name, len(rep.WallS)+1, err)
		}
		if want.Digest == "" {
			want = got
		}
		if got != want {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "oracle: %s: repetition %d is not the fixed work:\n got %+v\nwant %+v\n", w.Name, len(rep.WallS)+1, got, want)
		}
		rep.Attempted += got.Attempted
		rep.Failed += got.Failed
		rep.WallS = append(rep.WallS, d.Seconds())
		rep.DecisionsPerS = append(rep.DecisionsPerS, float64(got.Decisions)/d.Seconds())
		// Stop before a repetition that would overrun the window.
		if time.Since(begin)+d > budget {
			break
		}
	}

	rep.Sim = want.Digest
	rep.Correct = rep.Correct && rep.Failed == 0
	rep.Metrics = map[string]float64{
		"setup_s":         benchlib.Median(rep.SetupS),
		"wall_s":          benchlib.Quantile(rep.WallS, fastDecile),
		"decisions_per_s": benchlib.Quantile(rep.DecisionsPerS, 1-fastDecile),
	}
	return rep, nil
}

// print writes the report's metrics by name and unit and, last, the result
// line.
func (rep *report) print(spec *benchlib.Spec) error {
	line, err := benchlib.NewLine(spec.EndToEnd, rep.Metrics)
	if err != nil {
		return err
	}
	line.Correct, line.Attempted, line.Failed = rep.Correct, rep.Attempted, rep.Failed
	fmt.Printf("workload %s  seed %d  %d repetitions of %s  (host clock; simulated statistics identical across repetitions: %v)\n",
		rep.Workload, rep.Seed, len(rep.WallS), rep.Inputs, rep.Correct)
	return line.Print(spec.EndToEnd)
}

// agreement prints, for two sets of runs of the same commit, whether each
// end-to-end metric of each workload agrees within its bound — the test a
// later change's regression check has to be able to pass against itself.
func agreement(out io.Writer, spec *benchlib.Spec, a, b []*report) bool {
	all := true
	fmt.Fprintf(out, "\n%-14s %-16s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	for i := range a {
		for _, m := range spec.EndToEnd {
			x, y := a[i].Metrics[m.Name], b[i].Metrics[m.Name]
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			if worse < 0 {
				worse = -worse // either set may be the slower one
			}
			verdict := "agree"
			if worse > m.Bound {
				verdict, all = "DISAGREE", false
			}
			fmt.Fprintf(out, "%-14s %-16s %14.6g %14.6g %7.1f%% %6.0f%%  %s\n", a[i].Workload, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	return all
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", suite.GoldenSeed, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 0, "host seconds of timed repetitions per workload (default run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs the traced pass (benchmark/trace) and prints the per-layer metrics instead")
	sets := flag.Int("sets", 1, "run the whole selection this many times and print an agreement table")
	short := flag.Bool("short", false, "1/20-size smoke run")
	root := flag.String("root", ".", "checkout root")
	update := flag.Bool("update-golden", false, "rewrite benchmark/golden from a seed-42 run instead of checking against it")
	flag.Parse()

	if err := run(*root, *name, *seed, *seconds, *trace, *sets, *short, *update); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed uint64, seconds float64, trace, sets int, short, update bool) error {
	spec, err := benchlib.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	e := suite.Env{Root: root, Seed: seed, Scale: 1, UpdateGolden: update}
	if short {
		e.Scale = 1.0 / 20
	}
	var selected []suite.Workload
	for _, w := range suite.Workloads {
		if name == "all" || name == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace == 1 {
		return runTrace(root, selected, seed, seconds, short)
	}

	// The noise canary brackets the whole run: if the same register-only loop
	// takes a different time afterwards, the box changed under the run.
	before := benchlib.Canary()
	correct := true
	var all [][]*report
	for set := 0; set < sets; set++ {
		var reports []*report
		for _, w := range selected {
			rep, err := runWorkload(e, w, seconds)
			if err != nil {
				return err
			}
			if err := rep.print(spec); err != nil {
				return err
			}
			correct = correct && rep.Correct
			reports = append(reports, rep)
		}
		all = append(all, reports)
	}
	after := benchlib.Canary()
	noisy := benchlib.Noisy(before, after)
	note := ""
	if noisy {
		note = "  NOISY: the box changed during the run"
	}
	fmt.Fprintf(os.Stderr, "canary_ms %.1f before, %.1f after%s\n", before.Seconds()*1e3, after.Seconds()*1e3, note)
	out := struct {
		Host     benchlib.Host `json:"host"`
		CanaryMS [2]float64    `json:"canary_ms"`
		Noisy    bool          `json:"noisy"`
		Sets     [][]*report   `json:"sets"`
	}{benchlib.Fingerprint(), [2]float64{before.Seconds() * 1e3, after.Seconds() * 1e3}, noisy, all}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "benchmark", "out", "result.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if sets > 1 {
		// The agreement table follows the result lines, so it goes to
		// standard error: the last line of standard output stays a result.
		for set := 1; set < sets; set++ {
			agreement(os.Stderr, spec, all[0], all[set])
		}
	}
	if !correct {
		return fmt.Errorf("an oracle failed")
	}
	if name == "all" {
		// One command prints every metric: the per-layer ones follow.
		if err := runTrace(root, selected, seed, seconds, short); err != nil {
			fmt.Fprintln(os.Stderr, "trace: unavailable:", err)
		}
	}
	return nil
}

// runTrace hands the selection to the traced binary, one workload at a
// time. It is a separate program so that a refactor which breaks a layer's
// internals breaks only the per-layer numbers, never the end-to-end ones.
func runTrace(root string, selected []suite.Workload, seed uint64, seconds float64, short bool) error {
	bin, err := suite.Binary(root, "qtrace")
	if err != nil {
		return err
	}
	for _, w := range selected {
		cmd := exec.Command(bin, "-root", root, "-workload", w.Name,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), fmt.Sprintf("-short=%v", short))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("traced pass of %s: %w", w.Name, err)
		}
	}
	return nil
}
