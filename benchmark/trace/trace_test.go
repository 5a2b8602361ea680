package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
	"repro/internal/loadtest"
)

// root is the checkout root as seen from this package's directory.
const root = "../.."

// TestOnionDepthsReproduceTheHarness is what licenses the onion
// subtraction: the rebuilt plan through the in-process API (depth 1) and
// through core.Session.Round on a probe-built supply chain (depth 2) must
// deliver exactly the decisions, wins and sheds loadtest.RunVirtualPlan
// reports for the workload's own plan.
func TestOnionDepthsReproduceTheHarness(t *testing.T) {
	e := suite.Env{Root: root, Seed: 7, Scale: 1.0 / 20}
	for _, name := range []string{"decide_hot", "batch_hot", "supply_wide", "overload_shed"} {
		cfg, ok := suite.VirtualConfig(name, e)
		if !ok {
			t.Fatalf("%s is not a virtual-plan workload", name)
		}
		res, err := loadtest.RunVirtual(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := planFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(p.reqs)) != res.Requests {
			t.Fatalf("%s: replica schedules %d requests, loadtest %d", name, len(p.reqs), res.Requests)
		}
		accepted := make([]bool, len(p.reqs))
		d1, err := replayServe(p, nil, accepted)
		if err != nil {
			t.Fatal(err)
		}
		if d1.decisions != res.Decisions || d1.wins != res.Wins || d1.shed != res.Shed {
			t.Errorf("%s: depth 1 %d decisions / %d wins / %d shed, loadtest %d / %d / %d",
				name, d1.decisions, d1.wins, d1.shed, res.Decisions, res.Wins, res.Shed)
		}
		tr := newTracer()
		if _, _, err := replayCore(p, accepted, d1, tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		d3, supply := replaySupply(p, accepted, tr)
		if supply.events == 0 || d3.elapsed <= 0 {
			t.Errorf("%s: depth 3 ran %d events in %v", name, supply.events, d3.elapsed)
		}
		if supply.consumed != 0 {
			t.Errorf("%s: depth 3 consumed %d pairs with no round played", name, supply.consumed)
		}
	}
}

func TestHandlerMixDepthsAgree(t *testing.T) {
	e := suite.Env{Root: root, Seed: 7, Scale: 1.0 / 20}
	mix := suite.HandlerMix(e)
	driver, err := suite.NewHandlerDriver(mix)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	d0, err := replayHandler(driver, mix, tr)
	if err != nil {
		t.Fatal(err)
	}
	p := planFromMix(mix)
	accepted := make([]bool, len(p.reqs))
	d1, err := replayServe(p, tr, accepted)
	if err != nil {
		t.Fatal(err)
	}
	if d0.decisions != d1.decisions || d0.decisions != mix.Decisions() {
		t.Errorf("depth 0 delivered %d decisions, depth 1 %d, plan asks %d", d0.decisions, d1.decisions, mix.Decisions())
	}
	if _, _, err := replayCore(p, accepted, d1, tr); err != nil {
		t.Error(err)
	}
	// Request 0 is sampled at every depth: its spans must chain outwards.
	var chain []span
	for _, s := range tr.Spans {
		if s.Req == 0 && s.Name != "Engine.RunUntil" {
			chain = append(chain, s)
		}
	}
	if len(chain) != 3 {
		t.Fatalf("request 0 has %d depth spans, want 3: %+v", len(chain), chain)
	}
	for d, s := range chain {
		if s.Depth != d {
			t.Errorf("span %d of request 0 is at depth %d", d, s.Depth)
		}
		if d == 0 && s.Parent != -1 {
			t.Errorf("depth-0 span has parent %d", s.Parent)
		}
		if d > 0 && (s.Parent < 0 || tr.Spans[s.Parent].Depth != d-1 || tr.Spans[s.Parent].Req != 0) {
			t.Errorf("depth-%d span's parent is %d, want request 0's depth-%d span", d, s.Parent, d-1)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	if want := (len(mix.Ops) + sampleEvery - 1) / sampleEvery; countDepth(tr.Spans, 0) != want {
		t.Errorf("%d depth-0 spans for %d requests, want 1 in %d = %d", countDepth(tr.Spans, 0), len(mix.Ops), sampleEvery, want)
	}
	if tr.Counts["serve.ServeHTTP.calls"] != int64(len(mix.Ops)) {
		t.Errorf("counted %d ServeHTTP calls for %d requests: counts must not be sampled", tr.Counts["serve.ServeHTTP.calls"], len(mix.Ops))
	}
}

func countDepth(spans []span, depth int) int {
	n := 0
	for _, s := range spans {
		if s.Depth == depth && s.Parent == -1 {
			n++
		}
	}
	return n
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.enter(1)
	tr.end(tr.begin("serve", "x", 0))
	tr.end(tr.child("serve", "y", 0, -1))
	tr.count("n", 1)
}

func TestPerOpReportsTheMedianBatch(t *testing.T) {
	calls := 0
	ns := perOp(time.Millisecond, 10, func(n int) {
		calls++
		time.Sleep(100 * time.Microsecond)
	})
	if calls < 4 {
		t.Errorf("%d batches, want a warm one and at least three timed", calls)
	}
	if ns < 10_000 || ns > 1_000_000 {
		t.Errorf("perOp = %v ns per op for a 100µs batch of 10", ns)
	}
}

// TestTracedPassEmitsEveryDeclaredMetric runs the whole traced pass once —
// the real repro and qcoordd included, so it takes about ten seconds and is
// skipped under -short — and holds its output to BENCHMARK.json.
func TestTracedPassEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmd/repro end to end")
	}
	bin, err := filepath.Abs(filepath.Join(root, "benchmark", "out", "bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/repro", "./cmd/qcoordd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run fails unless the measured names are exactly the declared ones.
	if err := run(root, "handler_mix", suite.GoldenSeed, 0.5, true); err != nil {
		t.Fatal(err)
	}
	if _, err := benchlib.LoadSpec(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace.json")); err != nil {
		t.Errorf("trace.json not written: %v", err)
	}
}
