package loadtest

import (
	"encoding/json"
	"time"

	"repro/internal/stats"
)

// Quantiles summarizes one latency distribution from its HDR histogram.
// Values are nanoseconds; quantiles carry the histogram's ≤1/32 relative
// error, Mean and Max are exact.
type Quantiles struct {
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
	MeanNS int64 `json:"mean_ns"`
}

// ScenarioResult is one scenario's slice of the run.
type ScenarioResult struct {
	Name       string    `json:"name"`
	Requests   int64     `json:"requests"`
	Decisions  int64     `json:"decisions"`
	Wins       int64     `json:"wins"`
	Errors     int64     `json:"errors"`
	Retryable  int64     `json:"retryable"`
	Transport  int64     `json:"transport"`
	Shed       int64     `json:"shed"`
	InDeadline int64     `json:"in_deadline"`
	Late       int64     `json:"late"`
	Latency    Quantiles `json:"latency"`
}

// Result is one load-test run's report. In virtual mode every field is a
// pure function of the plan (byte-identical across runs and machines); in
// wall mode latency and throughput are real measurements.
type Result struct {
	Mode       string  `json:"mode"` // "virtual" or "wall"
	Seed       uint64  `json:"seed"`
	TargetRPS  float64 `json:"target_rps"`
	DurationNS int64   `json:"duration_ns"`

	Requests  int64 `json:"requests"`
	Decisions int64 `json:"decisions"`
	Wins      int64 `json:"wins"`
	// Errors are hard failures (4xx, transport-independent). Retryable
	// counts drain-mode 503s; Transport counts connection-level failures
	// (wall mode only — dial/reset errors while a server is going away).
	// Shed counts requests the server rejected under admission control
	// (429 / ShedError) — deliberate load-shedding, not failure.
	Errors    int64 `json:"errors"`
	Retryable int64 `json:"retryable"`
	Transport int64 `json:"transport"`
	Shed      int64 `json:"shed"`

	// InDeadline and Late split delivered decisions against the plan's
	// DeadlineBudget; with no budget every decision is in-deadline.
	// GoodputPerSec is in-deadline decisions per second — the headline
	// overload metric: shed and late work both fall out of it.
	InDeadline int64 `json:"in_deadline"`
	Late       int64 `json:"late"`

	RequestsPerSec  float64 `json:"requests_per_sec"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	GoodputPerSec   float64 `json:"goodput_per_sec"`
	WinRate         float64 `json:"win_rate"`

	Latency   Quantiles        `json:"latency"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// MarshalIndent renders the result as stable, committed-artifact JSON.
func (r *Result) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// recorder accumulates one run's counts and histograms; finish() folds it
// into a Result. Not concurrency-safe — the wall runner serializes access
// with its own mutex.
type recorder struct {
	names   []string
	perScen []*stats.HDRHistogram
	sumNS   []int64
	scen    []ScenarioResult
}

func newRecorder(names []string) *recorder {
	rec := &recorder{
		names:   names,
		perScen: make([]*stats.HDRHistogram, len(names)),
		sumNS:   make([]int64, len(names)),
		scen:    make([]ScenarioResult, len(names)),
	}
	for i, name := range names {
		rec.perScen[i] = stats.NewHDRHistogram()
		rec.scen[i].Name = name
	}
	return rec
}

func (rec *recorder) request(scenario int) { rec.scen[scenario].Requests++ }

// decision records one delivered decision into its scenario's histogram
// (finish merges the scenarios into the overall one). budgetNS classifies it
// against the plan's deadline budget: zero (no budget) counts every decision
// as in-deadline; otherwise a decision whose latency exceeds the budget is
// late and falls out of goodput.
func (rec *recorder) decision(scenario int, latencyNS int64, win bool, budgetNS int64) {
	rec.scen[scenario].Decisions++
	if win {
		rec.scen[scenario].Wins++
	}
	if budgetNS > 0 && latencyNS > budgetNS {
		rec.scen[scenario].Late++
	} else {
		rec.scen[scenario].InDeadline++
	}
	rec.perScen[scenario].Record(latencyNS)
	rec.sumNS[scenario] += latencyNS
}

// poll records a completed info request's latency (wall mode measures it;
// virtual mode passes 0). It lands in the scenario's own histogram only:
// info polls never carry decisions, and finish keeps them out of the
// overall decision latency.
func (rec *recorder) poll(scenario int, latencyNS int64) {
	rec.perScen[scenario].Record(latencyNS)
	rec.sumNS[scenario] += latencyNS
}

func (rec *recorder) errorKind(scenario int, kind errKind) {
	switch kind {
	case errRetryable:
		rec.scen[scenario].Retryable++
	case errTransport:
		rec.scen[scenario].Transport++
	case errShed:
		rec.scen[scenario].Shed++
	default:
		rec.scen[scenario].Errors++
	}
}

type errKind int

const (
	errHard errKind = iota
	errRetryable
	errTransport
	errShed
)

// quantiles extracts the report summary from a histogram plus the exact sum.
func quantiles(h *stats.HDRHistogram, sumNS int64) Quantiles {
	q := Quantiles{
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
		MaxNS:  h.Max(),
	}
	if n := h.Count(); n > 0 {
		q.MeanNS = sumNS / n
	}
	return q
}

// finish assembles the Result for a run that covered elapsed time.
func (rec *recorder) finish(mode string, cfg Config, elapsed time.Duration) *Result {
	res := &Result{
		Mode:       mode,
		Seed:       cfg.Seed,
		TargetRPS:  cfg.TargetRPS,
		DurationNS: int64(elapsed),
	}
	// The overall latency is the exact merge of the decision-bearing
	// scenarios. A scenario either polls or decides, so its histogram holds
	// one kind only.
	overall := stats.NewHDRHistogram()
	var sumNS int64
	for i := range rec.scen {
		sc := rec.scen[i]
		sc.Latency = quantiles(rec.perScen[i], rec.sumNS[i])
		if sc.Decisions > 0 {
			overall.Merge(rec.perScen[i])
			sumNS += rec.sumNS[i]
		}
		res.Scenarios = append(res.Scenarios, sc)
		res.Requests += sc.Requests
		res.Decisions += sc.Decisions
		res.Wins += sc.Wins
		res.Errors += sc.Errors
		res.Retryable += sc.Retryable
		res.Transport += sc.Transport
		res.Shed += sc.Shed
		res.InDeadline += sc.InDeadline
		res.Late += sc.Late
	}
	res.Latency = quantiles(overall, sumNS)
	if elapsed > 0 {
		secs := elapsed.Seconds()
		res.RequestsPerSec = float64(res.Requests) / secs
		res.DecisionsPerSec = float64(res.Decisions) / secs
		res.GoodputPerSec = float64(res.InDeadline) / secs
	}
	if res.Decisions > 0 {
		res.WinRate = float64(res.Wins) / float64(res.Decisions)
	}
	return res
}
