// Package loadtest is the serving-path load harness: an open-loop request
// generator that drives the qcoordd decide API at a target arrival rate and
// reports tail latency from log-bucketed HDR histograms (internal/stats).
//
// The generator is fully deterministic: every random choice — arrival
// schedule, scenario mix, session routing, round inputs — comes from
// independent xrand.Derive streams of one seed, so a plan is a pure
// function of its Config and any two runs of the same plan issue the exact
// same request sequence.
//
// Two execution modes share that plan:
//
//   - Virtual (RunVirtual): against in-process serve.Servers whose clock is
//     the plan's arrival schedule, the sessions split over Config.Workers
//     goroutines, each replaying its own sessions' requests in arrival
//     order. Nothing reads the real clock, so the full Result — counts, win
//     rates, and latency quantiles (the simulated decision latency,
//     QueueNS + LatencyNS + WaitedNS) — is byte-identical across runs,
//     machines and widths. This is the mode CI trends; its report answers
//     "what does the coordination layer itself do under this workload",
//     with zero measurement noise.
//
//   - Wall (RunWall): open-loop against a live HTTP endpoint with real
//     sleeps and real concurrency. Latency is wall time from the request's
//     *scheduled* arrival (so queueing delay from a saturated server is
//     charged to the server, not silently absorbed — the coordinated-
//     omission correction). Wall results are real measurements and are NOT
//     byte-stable; they back the drain-under-load test and ad-hoc runs.
package loadtest

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Scenario is one weighted request shape in the generator's mix.
type Scenario struct {
	// Name labels the scenario in results ("decide", "batch64", "info", ...).
	Name string `json:"name"`
	// Weight is the scenario's share of arrivals (normalized over the mix).
	Weight float64 `json:"weight"`
	// Batch is the rounds per request: 0 or 1 plays a single decide, n>1
	// issues an n-round batch.
	Batch int `json:"batch"`
	// Info makes the request a session health poll instead of a decision.
	Info bool `json:"info,omitempty"`
	// HeavyTail, when set, replaces the fixed Batch with a per-request
	// batch size drawn from a truncated Pareto — the heavy-tailed
	// service-demand regime where a small fraction of requests carries most
	// of the rounds. Sizes come from their own derived stream, so adding a
	// heavy-tailed scenario never perturbs the other streams.
	HeavyTail *HeavyTailBatch `json:"heavy_tail,omitempty"`
}

// HeavyTailBatch parametrizes a truncated-Pareto batch-size law: sizes are
// clamp(⌊Pareto(Shape, Scale)⌋, 1, Max).
type HeavyTailBatch struct {
	Shape float64 `json:"shape"`
	Scale float64 `json:"scale"`
	Max   int     `json:"max"`
}

// draw samples one batch size. The draw is clamped as a float: one at or
// past 2⁶³ (or +Inf, for a small Shape) has no int to convert to.
func (h HeavyTailBatch) draw(rng *xrand.RNG) int {
	x := workload.Pareto{Shape: h.Shape, Scale: h.Scale}.Sample(rng)
	switch {
	case !(x >= 1):
		return 1
	case x >= float64(h.Max):
		return h.Max
	}
	return int(x)
}

// validate checks the law.
func (h HeavyTailBatch) validate() error {
	if err := (workload.Pareto{Shape: h.Shape, Scale: h.Scale}).Validate(); err != nil {
		return err
	}
	if h.Max < 1 {
		return fmt.Errorf("heavy-tail batch max must be at least 1 (got %d): the tail must be truncated so batch buffers stay bounded", h.Max)
	}
	return nil
}

// DefaultScenarios is the standard serving mix: mostly single decisions,
// a steady stream of 64-round batches, and a trickle of health polls.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "decide", Weight: 0.60, Batch: 1},
		{Name: "batch64", Weight: 0.30, Batch: 64},
		{Name: "info", Weight: 0.10, Info: true},
	}
}

// Config parametrizes a load-test plan. Zero values take defaults.
type Config struct {
	// Seed drives every derived randomness stream (default 1).
	Seed uint64 `json:"seed"`
	// Duration is the arrival window (default 2s). In virtual mode this is
	// simulated time; in wall mode it is real time.
	Duration time.Duration `json:"duration_ns"`
	// TargetRPS is the open-loop arrival rate in requests/second
	// (default 2000). Arrivals are Poisson: exponential inter-arrival gaps.
	TargetRPS float64 `json:"target_rps"`
	// Rate, when set, replaces the constant TargetRPS with a non-stationary
	// intensity profile (diurnal modulation, flash crowds): arrivals become a
	// non-homogeneous Poisson process realized by thinning candidates drawn
	// at the profile's envelope rate. TargetRPS is ignored when Rate is set.
	// Nil keeps the historical constant-rate path byte-identical.
	Rate *workload.RateProfile `json:"rate,omitempty"`
	// Scenarios is the weighted request mix (default DefaultScenarios).
	Scenarios []Scenario `json:"scenarios"`
	// Sessions is how many independent sessions the load spreads over
	// (default 4). Requests route uniformly at random.
	Sessions int `json:"sessions"`
	// DeadlineBudget, when positive, stamps every generated decide request
	// with an absolute deadline of (scheduled arrival + budget). Delivered
	// decisions are then split into in-deadline and late — goodput is
	// in-deadline decisions per second — and an admission-enabled server
	// may shed requests that cannot finish inside the budget. Zero leaves
	// requests unstamped (every delivered decision counts as goodput).
	DeadlineBudget time.Duration `json:"deadline_budget_ns,omitempty"`
	// Admission, when non-nil, enables admission control on the virtual
	// runner's in-process server (see serve.Config.Admission). Wall runs
	// ignore it — the target daemon's own configuration governs.
	Admission *admission.Config `json:"admission,omitempty"`
	// SessionTemplate seeds each created session's parameters; ID and Seed
	// are set per session by the harness.
	SessionTemplate serve.SessionRequest `json:"-"`
	// Workers is the virtual replay's width: how many goroutines replay the
	// plan's sessions (<= 0 means GOMAXPROCS; at most Sessions, and 1 with
	// Admission set). The Result is the same at every width. Wall runs
	// ignore it.
	Workers int `json:"-"`
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.TargetRPS <= 0 {
		cfg.TargetRPS = 2000
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = DefaultScenarios()
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4
	}
	return cfg
}

// request is one precomputed arrival. It holds no pointer: a plan of any
// size is two flat slices the collector never scans.
type request struct {
	at       time.Duration // offset from run start
	scenario int32         // index into Plan.Scenarios
	session  int32         // index into the session set
	first, n uint32        // inputs are Plan.inputs[first:first+n]; n is 0 for info polls
}

// Plan is a fully materialized request schedule: every arrival time,
// scenario pick and round input computed up front from the seed. Both run
// modes execute the same plan, so virtual and wall results describe the
// same workload.
type Plan struct {
	Config    Config
	Scenarios []Scenario
	// reqs is in arrival order (BuildPlan appends it so); the runners
	// replay the slice as it stands.
	reqs []request
	// inputs holds every request's rounds back to back, in request order.
	inputs []serve.Round
	// ids names the session set, indexed by request.session. The plan owns
	// the strings so a replay formats nothing per request.
	ids []string
}

// Requests returns the number of scheduled arrivals.
func (p *Plan) Requests() int { return len(p.reqs) }

// rounds returns r's round inputs (empty for an info poll), capped at their
// end so an append by the callee cannot reach the next request's.
func (p *Plan) rounds(r request) []serve.Round {
	end := r.first + r.n
	return p.inputs[r.first:end:end]
}

// Presizing caps: BuildPlan reserves room for the expected plan, but never
// more than this many requests (48 MB) or round inputs (64 MB); a longer
// plan grows by append.
const (
	presizeRequests = 1 << 21
	presizeInputs   = 1 << 22
)

// Stream indices for xrand.Derive: each independent random choice gets its
// own derived stream so adding a scenario never perturbs the arrival
// schedule (and vice versa).
const (
	streamArrivals = 1
	streamScenario = 2
	streamSessions = 3
	streamInputs   = 4
	// streamSizes feeds heavy-tailed batch-size draws; streamThinning feeds
	// the acceptance test for non-stationary rate profiles. Both are new
	// consumers on their own streams, so plans without heavy-tail scenarios or
	// a Rate profile never touch them and stay byte-identical to pre-profile
	// plans — and adding a Rate profile never perturbs the size draws.
	streamSizes    = 5
	streamThinning = 6
)

// BuildPlan materializes the request schedule for cfg.
func BuildPlan(cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	var total float64
	weights := make([]float64, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		if sc.Weight < 0 {
			return nil, fmt.Errorf("scenario %q has negative weight", sc.Name)
		}
		if sc.Batch < 0 {
			return nil, fmt.Errorf("scenario %q has negative batch", sc.Name)
		}
		if sc.HeavyTail != nil {
			if err := sc.HeavyTail.validate(); err != nil {
				return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
			}
		}
		weights[i] = sc.Weight
		total += sc.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("scenario weights sum to %v", total)
	}
	if cfg.Sessions > math.MaxInt32 {
		return nil, fmt.Errorf("%d sessions: a plan routes to at most %d", cfg.Sessions, math.MaxInt32)
	}
	// A mean gap under 1 ns (or NaN) truncates every gap to 0: the clock would
	// never leave the window.
	if cfg.Rate != nil {
		if err := cfg.Rate.Validate(); err != nil {
			return nil, fmt.Errorf("rate profile: %w", err)
		}
	} else if !(float64(time.Second)/cfg.TargetRPS >= 1) {
		return nil, fmt.Errorf("target rate %v/s leaves no gap on a nanosecond clock", cfg.TargetRPS)
	}

	arrivals := xrand.Derive(cfg.Seed, streamArrivals)
	scenarios := xrand.Derive(cfg.Seed, streamScenario)
	sessions := xrand.Derive(cfg.Seed, streamSessions)
	inputs := xrand.Derive(cfg.Seed, streamInputs)
	sizes := xrand.Derive(cfg.Seed, streamSizes)
	thinning := xrand.Derive(cfg.Seed, streamThinning)

	p := &Plan{Config: cfg, Scenarios: cfg.Scenarios, ids: make([]string, cfg.Sessions)}
	for i := range p.ids {
		p.ids[i] = sessionID(i)
	}
	// next returns the following arrival offset, or false when the window is
	// exhausted. Constant rate draws exponential gaps directly; a profile uses
	// Lewis–Shedler thinning: candidates at the envelope rate, each accepted
	// with probability λ(t)/λmax. A gap is checked against the rest of the
	// window before it becomes a Duration: one far past it can overflow.
	var next func(at time.Duration) (time.Duration, bool)
	if cfg.Rate == nil {
		meanGap := float64(time.Second) / cfg.TargetRPS
		next = func(at time.Duration) (time.Duration, bool) {
			gap := arrivals.ExpFloat64() * meanGap
			if gap >= float64(cfg.Duration-at) {
				return at, false
			}
			return at + time.Duration(gap), true
		}
	} else {
		envGap := float64(time.Second) / cfg.Rate.MaxRate()
		next = func(at time.Duration) (time.Duration, bool) {
			for {
				gap := arrivals.ExpFloat64() * envGap
				if gap >= float64(cfg.Duration-at) {
					return at, false
				}
				at += time.Duration(gap)
				if thinning.Float64()*cfg.Rate.MaxRate() < cfg.Rate.Rate(at) {
					return at, true
				}
			}
		}
	}
	// Both generators only ever add a non-negative gap to at, so reqs is
	// appended in arrival order — the one place that order is established.
	reqs, rounds := presize(cfg, weights, total)
	at := time.Duration(0)
	for {
		var ok bool
		at, ok = next(at)
		if !ok {
			break
		}
		sc := scenarios.Categorical(weights)
		req := request{
			at:       at,
			scenario: int32(sc),
			session:  int32(sessions.IntN(cfg.Sessions)),
			first:    uint32(len(rounds)),
		}
		if !cfg.Scenarios[sc].Info {
			n := cfg.Scenarios[sc].Batch
			if ht := cfg.Scenarios[sc].HeavyTail; ht != nil {
				n = ht.draw(sizes)
			}
			if n < 1 {
				n = 1
			}
			if uint64(len(rounds))+uint64(n) > math.MaxUint32 {
				return nil, fmt.Errorf("plan needs more than %d round inputs", uint32(math.MaxUint32))
			}
			req.n = uint32(n)
			for range n {
				rounds = append(rounds, serve.Round{X: inputs.IntN(2), Y: inputs.IntN(2)})
			}
		}
		reqs = append(reqs, req)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("plan is empty: duration %v at %v rps schedules no arrivals", cfg.Duration, cfg.TargetRPS)
	}
	p.reqs, p.inputs = reqs, rounds
	return p, nil
}

// sessionID names session i as fmt's "lt-%03d" would, without fmt's pooled
// printer: the race detector drops pooled objects at random, and a plan's
// allocations are counted exactly (TestBuildPlanAllocsIndependentOfRequests).
func sessionID(i int) string {
	d := strconv.Itoa(i)
	return "lt-" + "000"[min(len(d), 3):] + d
}

// presize returns empty request and input slices with room for the plan cfg
// is expected to draw. Arrivals are Poisson with mean λ = rate × window
// (TargetRPS, or a profile's Base) and rounds compound Poisson with mean
// λ·E[b] and variance λ·E[b²] over the mix's batch sizes b (a heavy tail
// counted at its floor, Scale); each gets four standard deviations of room.
// Both are capped, so an absurd rate or window reserves no more than the caps.
func presize(cfg Config, weights []float64, total float64) ([]request, []serve.Round) {
	rate := cfg.TargetRPS
	if cfg.Rate != nil {
		rate = cfg.Rate.Base
	}
	mean := rate * cfg.Duration.Seconds()
	var m1, m2 float64
	for i, sc := range cfg.Scenarios {
		var b float64
		switch {
		case sc.Info:
		case sc.HeavyTail != nil:
			b = math.Min(math.Max(sc.HeavyTail.Scale, 1), float64(sc.HeavyTail.Max))
		default:
			b = float64(max(sc.Batch, 1))
		}
		m1 += weights[i] / total * b
		m2 += weights[i] / total * b * b
	}
	reqs := mean + 4*math.Sqrt(mean) + 16
	rounds := mean*m1 + 4*math.Sqrt(mean*m2) + 16
	// The negated compares also catch NaN.
	if !(reqs < presizeRequests) {
		reqs = presizeRequests
	}
	if !(rounds < presizeInputs) {
		rounds = presizeInputs
	}
	return make([]request, 0, int(reqs)), make([]serve.Round, 0, int(rounds))
}

// sessionRequests expands the template into the plan's session set, with
// per-session seeds derived from the plan seed so sessions are independent
// but replayable.
func (p *Plan) sessionRequests() []serve.SessionRequest {
	out := make([]serve.SessionRequest, p.Config.Sessions)
	for i := range out {
		req := p.Config.SessionTemplate
		req.ID = p.ids[i]
		if req.Seed == 0 {
			req.Seed = xrand.Derive(p.Config.Seed, uint64(100+i)).Uint64()
		}
		if len(req.Endpoints) == 0 {
			req.Endpoints = []string{fmt.Sprintf("lb-%03d-a", i), fmt.Sprintf("lb-%03d-b", i)}
		}
		out[i] = req
	}
	return out
}

// scenarioNames returns the mix's names in result order (plan order, which
// is stable). Results are keyed by name, so a name already taken gets the
// first suffix #1, #2, ... that is not.
func (p *Plan) scenarioNames() []string {
	names := make([]string, len(p.Scenarios))
	taken := make(map[string]bool, len(p.Scenarios))
	for i, sc := range p.Scenarios {
		name := sc.Name
		if name == "" {
			name = fmt.Sprintf("scenario%d", i)
		}
		for k, base := 1, name; taken[name]; k++ {
			name = fmt.Sprintf("%s#%d", base, k)
		}
		taken[name] = true
		names[i] = name
	}
	return names
}
