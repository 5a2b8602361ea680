package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
)

// root is the checkout root as seen from this package's directory.
const root = ".."

// buildPrograms builds the programs under test where run.sh puts them.
func buildPrograms(t *testing.T, pkgs ...string) {
	t.Helper()
	bin, err := filepath.Abs(filepath.Join(root, "benchmark", "out", "bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
}

func loadSpec(t *testing.T) *benchlib.Spec {
	t.Helper()
	spec, err := benchlib.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMeetsTheContract(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(suite.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the suite %d", len(spec.Workloads), len(suite.Workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != suite.Workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the suite", i, w.Name, suite.Workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, better lower")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}

// TestShortSmoke runs all six workloads at 1/20 size: every oracle passes,
// every repetition reproduces the warm one, and the run emits exactly the
// end-to-end metrics BENCHMARK.json declares, none of them zero.
func TestShortSmoke(t *testing.T) {
	buildPrograms(t, "./cmd/repro")
	spec := loadSpec(t)
	for _, seed := range []uint64{suite.GoldenSeed, 7} {
		e := suite.Env{Root: root, Seed: seed, Scale: 1.0 / 20}
		for _, w := range suite.Workloads {
			rep, err := runWorkload(e, w, 0.05)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("seed %d %s: correct=%v attempted=%d failed=%d", seed, w.Name, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.SetupS) != setupRounds || len(rep.WallS) < 1 {
				t.Errorf("seed %d %s: %d set-ups, %d repetitions", seed, w.Name, len(rep.SetupS), len(rep.WallS))
			}
			line, err := benchlib.NewLine(spec.EndToEnd, rep.Metrics)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, w.Name, err)
			}
			for name, v := range line.Metrics {
				if !(v.Value > 0) {
					t.Errorf("seed %d %s: %s = %v, want > 0", seed, w.Name, name, v.Value)
				}
			}
		}
	}
}

func TestAgreementComparesAgainstTheBound(t *testing.T) {
	spec := &benchlib.Spec{EndToEnd: []benchlib.Metric{
		{Name: "wall_s", Better: "lower", Bound: 0.10},
		{Name: "decisions_per_s", Better: "higher", Bound: 0.10},
	}}
	set := func(wall, rate float64) []*report {
		return []*report{{Workload: "w", Metrics: map[string]float64{"wall_s": wall, "decisions_per_s": rate}}}
	}
	if !agreement(io.Discard, spec, set(1.00, 100), set(1.09, 92)) {
		t.Error("sets within 10% reported as disagreeing")
	}
	if agreement(io.Discard, spec, set(1.00, 100), set(1.12, 100)) {
		t.Error("12% slower wall_s reported as agreeing")
	}
	if agreement(io.Discard, spec, set(1.00, 100), set(1.00, 88)) {
		t.Error("12% lower decisions_per_s reported as agreeing")
	}
	if agreement(io.Discard, spec, set(1.12, 100), set(1.00, 100)) {
		t.Error("disagreement missed when the first set is the slower one")
	}
}
