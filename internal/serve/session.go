package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/entangle"
	"repro/internal/faults"
	"repro/internal/games"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// SessionRequest is the POST /v1/sessions body: a group of balancer
// endpoints registering for coordinated decisions, plus the entangled-pair
// provisioning for their session. Zero values take serving defaults.
type SessionRequest struct {
	// ID is an optional caller-chosen session identifier; one is generated
	// when empty. Creating an ID that already exists is a conflict.
	ID string `json:"id,omitempty"`
	// Game selects the coordination objective: "colocation" (default, the
	// paper's §4.1 load-balancing game) or "chsh".
	Game string `json:"game,omitempty"`
	// Endpoints names the balancer endpoints coordinating through this
	// session. Two-party games need exactly two.
	Endpoints []string `json:"endpoints"`
	// Seed drives all session randomness; derived from the ID when 0, so a
	// fixed (id, seed) registration replays identically.
	Seed uint64 `json:"seed,omitempty"`
	// PairBudget caps the total entangled pairs the session's source may
	// deliver (0 = unlimited). When exhausted the source stops and the
	// session rides the degradation ladder down to classical play.
	PairBudget int64 `json:"pair_budget,omitempty"`
	// PoolCap bounds stored pairs at the QNICs (default 256).
	PoolCap int `json:"pool_cap,omitempty"`
	// PairRate is the SPDC generation rate in pairs/second (default 1e5).
	// Rates near 1/StorageLimit (1e4 for the default QNIC) leave the
	// freshest stored pair about as old as the storage limit, so delivered
	// visibility sits at the critical threshold and the session hovers
	// between rungs instead of playing quantum.
	PairRate float64 `json:"pair_rate,omitempty"`
	// BaseVisibility is the freshly delivered pair visibility (default 0.98).
	BaseVisibility float64 `json:"base_visibility,omitempty"`
	// FiberLengthM is the one-way source→endpoint fiber run (default 1000).
	FiberLengthM float64 `json:"fiber_m,omitempty"`
	// HealthWindow is the health monitor's rolling window in consumption
	// attempts (default 16 — small enough that a serving session reacts to a
	// supply fault within a few milliseconds of decisions).
	HealthWindow int `json:"health_window,omitempty"`
	// Priority is the session's shedding tier under overload: "high",
	// "normal" (default) or "low". Admission control sheds low first,
	// then normal; high-priority traffic is protected until the hard
	// backlog cap, with the brownout rung engaging in between.
	Priority string `json:"priority,omitempty"`
	// Faults optionally scripts a deterministic fault timeline against the
	// session's supply chain (times are relative to session creation).
	Faults []FaultWindow `json:"faults,omitempty"`
}

// FaultWindow is one scripted supply-chain fault in a SessionRequest.
type FaultWindow struct {
	// Kind spells a faults.Kind: "source-outage", "fiber-loss-burst",
	// "decoherence-spike", "bsm-failure" or "pool-flush".
	Kind string `json:"kind"`
	// StartMS/EndMS bound the window in milliseconds after session creation.
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// Severity is the kind-specific multiplier (see internal/faults).
	Severity float64 `json:"severity,omitempty"`
}

// DecideRequest is the POST /v1/decide body: one coordination round. X and Y
// are the two parties' local inputs (for the colocation game: 1 for a
// type-C task, 0 for a type-E task).
type DecideRequest struct {
	Session string `json:"session"`
	X       int    `json:"x"`
	Y       int    `json:"y"`
	// DeadlineUnixNS is the absolute deadline (UnixNano) by which the
	// decision must be delivered to still be useful. Zero means unstamped.
	// When admission control is enabled, a request whose modeled
	// queue+service time exceeds the remaining budget is rejected
	// immediately with a retryable 429 instead of being served late.
	DeadlineUnixNS int64 `json:"deadline_unix_ns,omitempty"`
}

// Round is one (x, y) input pair inside a batched decide request.
type Round struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// DecideBatchRequest is the POST /v1/decide/batch body: many rounds for one
// session in a single HTTP exchange. The whole batch plays at one wall
// instant — the session clock advances once, then every round draws from
// the session's state at that instant (a batch arriving together is exactly
// that physically: the pool does not refill mid-batch).
type DecideBatchRequest struct {
	Session string  `json:"session"`
	Rounds  []Round `json:"rounds"`
	// DeadlineUnixNS: see DecideRequest. The whole batch shares one
	// deadline — it arrives, queues and plays together.
	DeadlineUnixNS int64 `json:"deadline_unix_ns,omitempty"`
}

// DecideBatchResponse carries one DecideResponse per requested round, in
// request order.
type DecideBatchResponse struct {
	Session string           `json:"session"`
	Results []DecideResponse `json:"results"`
}

// DecideResponse is the routing decision for one round: each party's output
// bit, computed without any cross-endpoint communication.
type DecideResponse struct {
	Session    string  `json:"session"`
	A          int     `json:"a"`
	B          int     `json:"b"`
	Mode       string  `json:"mode"`
	Level      string  `json:"level"`
	Visibility float64 `json:"visibility"`
	LatencyNS  int64   `json:"latency_ns"`
	WaitedNS   int64   `json:"waited_ns"`
	// QueueNS is the modeled admission-queue wait ahead of this decision
	// (0 with admission control disabled). Deadline accounting sums
	// QueueNS + LatencyNS + WaitedNS — the queueing delay a frozen
	// virtual clock cannot measure directly.
	QueueNS int64 `json:"queue_ns"`
	Win     bool  `json:"win"`
}

// SessionInfo is the GET /v1/sessions/{id} body: identity, degradation rung
// and supply health.
type SessionInfo struct {
	ID        string   `json:"id"`
	Game      string   `json:"game"`
	Endpoints []string `json:"endpoints"`

	Level       string  `json:"level"`
	Visibility  float64 `json:"visibility"`
	SupplyRate  float64 `json:"supply_rate"`
	Transitions int64   `json:"transitions"`
	// Priority is the session's provisioned shedding tier.
	Priority string `json:"priority"`
	// Brownout reports whether the session is currently held at the
	// load-driven classical rung by admission control.
	Brownout bool `json:"brownout"`

	Rounds         int64   `json:"rounds"`
	QuantumRounds  int64   `json:"quantum_rounds"`
	FallbackRounds int64   `json:"fallback_rounds"`
	WinRate        float64 `json:"win_rate"`

	PoolPairs       int   `json:"pool_pairs"`
	PairsDelivered  int64 `json:"pairs_delivered"`
	PairBudget      int64 `json:"pair_budget"`
	BudgetExhausted bool  `json:"budget_exhausted"`

	CriticalVisibility float64 `json:"critical_visibility"`
	ClassicalValue     float64 `json:"classical_value"`
	QuantumValue       float64 `json:"quantum_value"`
	SimNowNS           int64   `json:"sim_now_ns"`
	Draining           bool    `json:"draining"`
}

// Serving defaults. PairRate matches the simulator binaries' 1e5/s default.
const (
	defaultPairRate     = 1e5
	defaultPoolCap      = 256
	defaultHealthWindow = 16
)

// maxPairRate is the highest generation rate a session may register: the top
// of the paper's §3 range. Catch-up work per request is one generation tick
// per source interval over at most maxAdvancePerStep, run under the session
// lock, so it is bounded only if the rate is: 250 000 ticks (a few
// milliseconds) at this rate, where an unchecked 1e9/s was 25 million ticks
// and half a second inside one Decide.
const maxPairRate = 1e7

// maxAdvancePerStep caps how far a single request fast-forwards a session's
// simulated clock. Without the cap, a session that idled (or a host slower
// than the source's event rate — think race-detector CI on one core) owes
// catch-up work proportional to wall time, and a session that falls behind
// real time owes *more* work per decision, a divergent feedback loop. With
// it, simulated time lags wall time under overload instead: supply/decision
// dynamics stay physical, and each request does bounded engine work: 25 ms
// at the default pair rate is 2 500 generated pairs, which the source runs
// as one in-engine batch (3.4–7 ns of host time per pair on its bulk pass,
// BenchmarkServiceCatchUp/default-25ms on a 2-vCPU Xeon guest, README
// § Serving), and maxPairRate bounds it for any session.
const maxAdvancePerStep = 25 * time.Millisecond

// session is one registered endpoint group: a discrete-event supply chain
// (engine + pool + source service), a core.Session with its own
// HealthMonitor, and the wall-clock anchor mapping real time onto the
// engine's simulated clock. All fields past mu are guarded by it; sessions
// are independently locked, so decisions in different sessions never contend.
type session struct {
	// tally is written inside mu's hold and read without it.
	tally tally

	mu sync.Mutex

	id        string
	gameName  string
	endpoints []string
	priority  admission.Priority // immutable after creation
	created   time.Time
	// simNow is the session's virtual clock: advanced by wall-clock deltas
	// capped at maxAdvancePerStep, so it tracks real time when the host
	// keeps up and lags gracefully when it cannot.
	simNow   time.Duration
	lastWall time.Time

	engine *netsim.Engine
	pool   *entangle.Pool
	svc    *entangle.Service
	core   *core.Session
	game   *games.XORGame

	pairBudget int64
}

// tally is what the requests a session served did to the server's decide
// counters, one atomic.Int64 per field below. Only the decide holding the
// session's lock writes it, so its writes never contend; (*Server).snapshot
// sums it over every session with atomic loads and takes no session lock,
// and no decide writes a server-wide counter. A request is a single or a
// batch, and a decision goodput or late, so neither total is kept: each is
// the sum of its two parts.
type tally [tallyFields]atomic.Int64

// The tally's fields.
const (
	tSingles      = iota // requests from the single-decision entry points
	tBatches             // requests from the batch ones
	tLate                // decisions delivered past their deadline
	tGoodput             // decisions delivered inside it (all of an unstamped request's)
	tGoodputNS           // their summed modeled latency
	tGoodputMaxNS        // the largest of them: folded by max, not summed
	tallyFields
)

// account is stage 7 of the decide pipeline: it counts one request and
// classifies its delivered decisions against its deadline in one pass. A
// decision's modeled latency is queue wait + decision latency + supply wait
// — the same sum the loadtest harness records — and it is late when that
// overruns what was left of the deadline at start. Unstamped requests are
// goodput by definition, so they skip the deadline arithmetic. The caller
// holds the session's lock, which makes the maximum's load-then-store safe;
// a field the request leaves alone is not written.
func (t *tally) account(start, deadline time.Time, out []DecideResponse, batch bool) {
	budget := int64(math.MaxInt64)
	if !deadline.IsZero() {
		budget = int64(deadline.Sub(start))
	}
	var late, goodput, goodputNS, longest int64
	for i := range out {
		total := out[i].QueueNS + out[i].LatencyNS + out[i].WaitedNS
		if total > budget {
			late++
			continue
		}
		goodput++
		goodputNS += total
		longest = max(longest, total)
	}
	if batch {
		t[tBatches].Add(1)
	} else {
		t[tSingles].Add(1)
	}
	if late > 0 {
		t[tLate].Add(late)
	}
	if goodput > 0 {
		t[tGoodput].Add(goodput)
		t[tGoodputNS].Add(goodputNS)
		if longest > t[tGoodputMaxNS].Load() {
			t[tGoodputMaxNS].Store(longest)
		}
	}
}

// addTo folds t into sum: every field summed but the maximum.
func (t *tally) addTo(sum *[tallyFields]int64) {
	for f := range sum {
		if v := t[f].Load(); f == tGoodputMaxNS {
			sum[f] = max(sum[f], v)
		} else {
			sum[f] += v
		}
	}
}

// parseFaultKind maps the wire spelling onto faults.Kind.
func parseFaultKind(s string) (faults.Kind, error) {
	for k := faults.KindNone + 1; int(k) <= faults.NumKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return faults.KindNone, fmt.Errorf("unknown fault kind %q", s)
}

// buildSchedule converts wire fault windows into a validated schedule.
func buildSchedule(ws []FaultWindow) (faults.Schedule, error) {
	var sched faults.Schedule
	for i, fw := range ws {
		kind, err := parseFaultKind(fw.Kind)
		if err != nil {
			return sched, fmt.Errorf("fault %d: %w", i, err)
		}
		sched.Windows = append(sched.Windows, faults.Window{
			Kind:     kind,
			Start:    time.Duration(fw.StartMS * float64(time.Millisecond)),
			End:      time.Duration(fw.EndMS * float64(time.Millisecond)),
			Severity: fw.Severity,
		})
	}
	if err := sched.Validate(); err != nil {
		return sched, err
	}
	return sched, nil
}

// gameFor resolves a SessionRequest's game name.
func gameFor(name string) (*games.XORGame, error) {
	switch name {
	case "", "colocation":
		return games.NewColocationCHSH(), nil
	case "chsh":
		return games.NewCHSH(), nil
	default:
		return nil, fmt.Errorf("unknown game %q (want \"colocation\" or \"chsh\")", name)
	}
}

// newSession provisions the full per-session stack from a validated request.
func newSession(id string, req SessionRequest, now time.Time) (*session, error) {
	game, err := gameFor(req.Game)
	if err != nil {
		return nil, err
	}
	if len(req.Endpoints) != 2 {
		return nil, fmt.Errorf("two-party game needs exactly 2 endpoints, got %d", len(req.Endpoints))
	}
	if req.PairBudget < 0 {
		return nil, fmt.Errorf("pair budget must be non-negative")
	}
	if req.PairRate > maxPairRate {
		return nil, fmt.Errorf("pair rate %g/s exceeds the maximum %g/s", req.PairRate, float64(maxPairRate))
	}
	// Zero selects the default; a negative capacity would reach the pool as
	// "unlimited" and a negative window would pick core's default, not ours.
	if req.PoolCap < 0 {
		return nil, fmt.Errorf("pool capacity must be non-negative")
	}
	if req.HealthWindow < 0 {
		return nil, fmt.Errorf("health window must be non-negative")
	}
	sched, err := buildSchedule(req.Faults)
	if err != nil {
		return nil, err
	}
	prio, err := admission.ParsePriority(req.Priority)
	if err != nil {
		return nil, err
	}

	src := entangle.DefaultSource()
	src.PairRate = defaultPairRate
	if req.PairRate != 0 {
		src.PairRate = req.PairRate
	}
	if req.BaseVisibility != 0 {
		src.BaseVisibility = req.BaseVisibility
	}
	if req.FiberLengthM != 0 {
		src.FiberLengthM = req.FiberLengthM
	}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	poolCap := defaultPoolCap
	if req.PoolCap != 0 {
		poolCap = req.PoolCap
	}
	window := defaultHealthWindow
	if req.HealthWindow != 0 {
		window = req.HealthWindow
	}
	seed := req.Seed
	if seed == 0 {
		seed = fnv64a(id)
	}

	engine := netsim.NewEngine()
	qnic := entangle.DefaultQNIC()
	pool := entangle.NewPool(qnic, poolCap)
	rng := xrand.New(seed, 0x5e55)
	svc := entangle.StartService(engine, src, pool, rng.Split(1))
	svc.SetBudget(req.PairBudget)
	if len(sched.Windows) > 0 {
		faults.NewInjector(engine, sched, faults.Target{Service: svc, Pool: pool}).Arm()
	}

	cs, err := core.NewSession(core.Config{
		Game:     game,
		Supplier: pool,
		QNIC:     qnic,
		Seed:     seed,
		Health: &core.HealthConfig{
			Window:         window,
			BaseVisibility: src.BaseVisibility,
		},
	})
	if err != nil {
		return nil, err
	}
	return &session{
		id:         id,
		gameName:   game.Name,
		endpoints:  append([]string(nil), req.Endpoints...),
		priority:   prio,
		created:    now,
		lastWall:   now,
		engine:     engine,
		pool:       pool,
		svc:        svc,
		core:       cs,
		game:       game,
		pairBudget: req.PairBudget,
	}, nil
}

// advanceAt steps the session's virtual clock to the caller-supplied wall
// reading (capped at maxAdvancePerStep since the last advance) and
// fast-forwards the supply chain to it; the source enforces the pair budget
// itself, pair by pair. It returns the new virtual now. Callers hold s.mu.
//
// The wall read is hoisted to the caller deliberately: the decide pipeline
// reads the server clock ONCE per request, so a 64-round batch pays one
// clock read and one engine catch-up, not 64 — and an injected test clock
// makes the whole decide path deterministic.
func (s *session) advanceAt(wall time.Time) time.Duration {
	delta := wall.Sub(s.lastWall)
	if delta <= 0 {
		// Clock unchanged (frozen test clock, same-tick batch) or moved
		// backwards: no supply-chain work to do.
		return s.simNow
	}
	s.lastWall = wall
	if delta > maxAdvancePerStep {
		delta = maxAdvancePerStep
	}
	s.simNow += delta
	s.engine.RunUntil(s.simNow)
	return s.simNow
}

// roundError is an input-validation failure tagged with the offending
// round's index in its batch.
type roundError struct {
	round int
	err   error
}

func (e *roundError) Error() string { return fmt.Sprintf("round %d: %v", e.round, e.err) }

// singleRound renders a play error for the single-round entry points, whose
// contract predates batching: an input error there names no round index.
func singleRound(err error) error {
	if re, ok := err.(*roundError); ok {
		return re.err
	}
	return err
}

// checkRounds validates every round's inputs against the game alphabet. It
// reads only immutable session fields, so it runs outside the lock — and
// before admission, so a malformed request costs the shard nothing. One bad
// round fails the whole batch (all-or-nothing, so a client never has to
// guess which prefix executed).
func (s *session) checkRounds(rounds []Round) error {
	for i, r := range rounds {
		if r.X < 0 || r.X >= s.game.NA || r.Y < 0 || r.Y >= s.game.NB {
			return &roundError{i, fmt.Errorf("inputs (%d,%d) outside game alphabet %dx%d", r.X, r.Y, s.game.NA, s.game.NB)}
		}
	}
	return nil
}

// fill maps a core round decision into the wire response. Alloc-free: the
// Mode/Level names are fixed interned strings.
func (s *session) fill(out *DecideResponse, r Round, d *core.Decision, queueNS int64) {
	out.Session = s.id
	out.A = d.A
	out.B = d.B
	out.Mode = d.Mode.String()
	out.Level = d.Level.String()
	out.Visibility = d.Visibility
	out.LatencyNS = int64(d.Latency)
	out.WaitedNS = int64(d.Waited)
	out.QueueNS = queueNS
	out.Win = s.game.Wins(r.X, r.Y, d.A, d.B)
}

// playAt plays len(rounds) validated rounds in one lock hold at a single
// wall reading — one engine catch-up, len(rounds) strategy draws — and
// accounts for them in the session's tally against deadline. out must
// have len(rounds) elements; results land in request order.
//
// queueNS and brownout come from the admission decision that let the
// request through (0/false with admission disabled). While browned out the
// session plays core.BrownoutRound — the cheap best-classical strategy
// with no engine catch-up, no supply probe and no pool consumption — so
// sustained overload sheds compute before it sheds high-priority traffic.
func (s *session) playAt(wall, deadline time.Time, rounds []Round, out []DecideResponse, queueNS int64, brownout, batch bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.Health().SetBrownout(brownout)
	if brownout {
		for i, r := range rounds {
			d := s.core.BrownoutRound(r.X, r.Y)
			s.fill(&out[i], r, &d, queueNS)
		}
	} else {
		now := s.advanceAt(wall)
		for i, r := range rounds {
			d := s.core.Round(now, r.X, r.Y)
			s.fill(&out[i], r, &d, queueNS)
		}
	}
	s.tally.account(wall, deadline, out[:len(rounds)], batch)
}

// infoAdvanceTick bounds how often the read path may fast-forward the
// supply chain: info() advances only when at least this much wall time has
// passed since the last advance. Health polls hammering GET
// /v1/sessions/{id} during a load test therefore cost map lookups and
// field reads, not engine catch-up work that would serialize against (and
// perturb) decide-path latency.
const infoAdvanceTick = time.Millisecond

// info reports the session's health without playing a round. It
// fast-forwards the supply chain at most once per infoAdvanceTick so the
// degradation rung tracks the present without making every poll pay (or
// inflict) catch-up work.
func (s *session) info(draining bool, wall time.Time) SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wall.Sub(s.lastWall) >= infoAdvanceTick {
		s.advanceAt(wall)
	}
	st := s.core.Stats()
	h := s.core.Health()
	delivered := s.svc.Stats().Delivered
	return SessionInfo{
		ID:   s.id,
		Game: s.gameName,
		// The endpoint list is immutable after creation; sharing it with the
		// encoder saves a per-poll allocation. Callers must not mutate it.
		Endpoints:          s.endpoints,
		Level:              h.Level().String(),
		Visibility:         h.Visibility(),
		SupplyRate:         h.SupplyRate(),
		Transitions:        h.Transitions(),
		Priority:           s.priority.String(),
		Brownout:           h.Brownout(),
		Rounds:             st.Rounds,
		QuantumRounds:      st.QuantumRounds,
		FallbackRounds:     st.FallbackRounds,
		WinRate:            st.Wins.Rate(),
		PoolPairs:          s.pool.Len(),
		PairsDelivered:     delivered,
		PairBudget:         s.pairBudget,
		BudgetExhausted:    s.pairBudget > 0 && delivered >= s.pairBudget,
		CriticalVisibility: s.core.CriticalVis(),
		ClassicalValue:     s.core.ClassicalValue(),
		QuantumValue:       s.core.QuantumValue(),
		SimNowNS:           int64(s.engine.Now()),
		Draining:           draining,
	}
}

// stop halts the session's source (used at server shutdown so engines owe
// no further catch-up work).
func (s *session) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.svc.Stop()
}
