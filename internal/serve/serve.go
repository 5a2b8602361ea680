// Package serve is the qcoordd serving layer: the paper's decision
// primitive exposed as a long-lived HTTP API. Balancer endpoint groups
// register as sessions (POST /v1/sessions), each provisioned with its own
// entanglement supply chain — engine, pool, SPDC source service and pair
// budget from internal/entangle — and its own core.HealthMonitor, so a
// supply fault steps that session down the degradation ladder without
// touching its neighbors. Decisions (POST /v1/decide) answer in a single
// session-local lock hold: no cross-endpoint communication, which is the
// point (Figure 2).
//
// Session state is sharded: FNV-64a(session ID) picks one of N
// mutex-striped shards, so registration and lookup never take a global
// lock, and each session's own mutex serializes only its rounds.
//
// Shutdown is cooperative: StartDrain stops new sessions and makes further
// decisions return a retryable 503 while in-flight decisions complete
// (Drain bounds the wait), after which the owner flushes a final metrics
// artifact and exits cleanly.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/metrics"
)

// Config parametrizes a Server. The zero value serves with defaults.
type Config struct {
	// Shards is the stripe width of the session store, capped at MaxShards
	// and rounded up to a power of two (default 16).
	Shards int
	// Clock supplies wall time for the session clocks (default time.Now).
	// Injecting a clock makes the whole decide path deterministic: the
	// in-process load-test backend drives sessions on a virtual time axis,
	// and decide-path tests stop racing the real clock.
	Clock func() time.Time
	// Admission, when non-nil, enables overload resilience on the decide
	// paths: the adaptive concurrency limiter, the per-shard deadline
	// gate, priority shedding and the load-driven brownout rung (see
	// internal/admission). Nil preserves the pre-admission behavior
	// exactly — every request is served, however late. Where the stages
	// sit in the decide pipeline is documented once, on (*Server).play.
	Admission *admission.Config
}

// Sentinel errors for the in-process decision API (the HTTP handlers map
// them onto status codes).
var (
	// ErrDraining is returned while the server refuses new work during
	// shutdown; the HTTP equivalent is the retryable 503.
	ErrDraining = errors.New("serve: draining")
	// ErrNoSession is returned for an unknown session ID (HTTP 404).
	ErrNoSession = errors.New("serve: no such session")
	// ErrSessionExists is wrapped by CreateSession when the requested ID is
	// already registered (HTTP 409).
	ErrSessionExists = errors.New("already exists")
	// errEmptyBatch rejects a decide request carrying no rounds (HTTP 400).
	errEmptyBatch = errors.New("batch has no rounds")
	// errBodyTooLarge guards the pooled read buffers against abuse.
	errBodyTooLarge = errors.New("serve: request body too large")
)

// ShedError reports a decide request rejected by admission control. Like
// ErrDraining it is retryable — the server did no session work for it —
// and the HTTP handlers map it onto 429 Too Many Requests with a
// Retry-After hint.
type ShedError struct {
	// Outcome is the shed reason (deadline, priority, backlog, limiter,
	// expired).
	Outcome admission.Outcome
	// RetryAfter suggests when the modeled backlog will have drained.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: overloaded (shed: %s)", e.Outcome)
}

// maxBodyBytes bounds a decide request body (a 4096-round batch is ~64 KiB;
// the limit leaves ample headroom without letting a client balloon the
// pooled buffers).
const maxBodyBytes = 1 << 20

// shard is one stripe of the session store: a mutex guarding an ID→session
// map. The shard lock covers only map access; round-playing work happens
// under the individual session's lock.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// Server implements the qcoordd HTTP API. Create one with NewServer and
// mount it (it implements http.Handler).
type Server struct {
	mux      *http.ServeMux
	shards   []*shard
	mask     uint64
	reg      *metrics.Registry
	clock    func() time.Time
	adm      *admission.Controller // nil = admission disabled
	draining atomic.Bool
	inflight atomic.Int64 // decisions currently executing
	nextID   atomic.Uint64

	mSessions     *metrics.Counter
	mSessionGauge *metrics.Gauge
	mDecisions    *metrics.Counter
	mBatches      *metrics.Counter
	mDecideErrs   *metrics.Counter
	mDrainRejects *metrics.Counter
	mDecideTimer  *metrics.Timer
	mBatchTimer   *metrics.Timer
	mGoodput      *metrics.Timer   // in-deadline decision latency
	mLate         *metrics.Counter // decisions delivered past their deadline
}

// MaxShards caps the session store's stripe width. The cap keeps the
// power-of-two rounding from overflowing and the stripe array bounded.
const MaxShards = 1 << 16

// NewServer builds a ready-to-mount server.
func NewServer(cfg Config) *Server {
	n := min(cfg.Shards, MaxShards)
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	w := 1
	for w < n {
		w <<= 1
	}
	// The server, its admission controller and its sessions' monitors share
	// the process-wide default registry (until the registry becomes one per
	// server), so /metrics is the one complete view of the serving stack.
	// The batch libraries keep their counts in the values they return.
	reg := metrics.Default()
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		shards:        make([]*shard, w),
		mask:          uint64(w - 1),
		reg:           reg,
		clock:         clock,
		mSessions:     reg.Counter("serve_sessions_created_total"),
		mSessionGauge: reg.Gauge("serve_sessions_active"),
		mDecisions:    reg.Counter("serve_decisions_total"),
		mBatches:      reg.Counter("serve_decide_batches_total"),
		mDecideErrs:   reg.Counter("serve_decide_errors_total"),
		mDrainRejects: reg.Counter("serve_drain_rejected_total"),
		mDecideTimer:  reg.Timer("serve_decide"),
		mBatchTimer:   reg.Timer("serve_decide_batch"),
		mGoodput:      reg.Timer("serve_goodput"),
		mLate:         reg.Counter("serve_late_total"),
	}
	if cfg.Admission != nil {
		// One admission gate per session shard: the gate's virtual queue
		// models exactly the state the shard's sessions contend on.
		s.adm = admission.NewController(*cfg.Admission, w)
	}
	for i := range s.shards {
		s.shards[i] = &shard{sessions: make(map[string]*session)}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("POST /v1/decide", s.handleDecide)
	mux.HandleFunc("POST /v1/decide/batch", s.handleDecideBatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// fnv64a is the shard hash. It takes the ID as a string or as the decoder's
// byte view of one.
func fnv64a[S string | []byte](s S) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Admission returns the server's admission controller (nil when disabled).
func (s *Server) Admission() *admission.Controller { return s.adm }

// find resolves a session ID — a string, or the request decoder's byte view
// of one, which the map lookup does not copy — in one hash pass (nil when
// unknown), also returning the index of its shard, which is its admission
// gate's index.
func find[S string | []byte](s *Server, id S) (*session, int) {
	idx := int(fnv64a(id) & s.mask)
	sh := s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[string(id)], idx
}

// lookup is find for an ID held as a string.
func (s *Server) lookup(id string) (*session, int) { return find(s, id) }

// SessionCount returns the number of registered sessions across all shards.
func (s *Server) SessionCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeDraining answers a request rejected by shutdown: 503 with
// Retry-After, the retryable contract clients key on.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// deadlineOf maps a wire deadline (UnixNano, 0 = unstamped) onto the
// admission layer's absolute form.
func deadlineOf(unixNS int64) time.Time {
	if unixNS == 0 {
		return time.Time{}
	}
	return time.Unix(0, unixNS)
}

// writeRaw sends a pre-encoded JSON body (the append-encoder output) with a
// Content-Length so net/http skips chunked framing.
func writeRaw(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// CreateSession provisions a session in-process (the HTTP handler and the
// load-test backends share it). The returned info reflects the session's
// initial state.
func (s *Server) CreateSession(req SessionRequest) (SessionInfo, error) {
	if s.draining.Load() {
		s.mDrainRejects.Inc()
		return SessionInfo{}, ErrDraining
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("s-%06d", s.nextID.Add(1))
	}
	sess, err := newSession(id, req, s.clock())
	if err != nil {
		return SessionInfo{}, err
	}
	sh := s.shards[fnv64a(id)&s.mask]
	sh.mu.Lock()
	if _, exists := sh.sessions[id]; exists {
		sh.mu.Unlock()
		sess.stop()
		return SessionInfo{}, fmt.Errorf("session %q %w", id, ErrSessionExists)
	}
	sh.sessions[id] = sess
	sh.mu.Unlock()
	s.mSessions.Inc()
	s.mSessionGauge.Set(float64(s.SessionCount()))
	return sess.info(false, s.clock()), nil
}

// play is the decide pipeline. Every entry point — in-process or HTTP,
// single or batched — is a thin wrapper over it, and a single decision is a
// batch of one. The stages, in order, and why each sits where it does:
//
//  1. Inflight gate, then drain check. Drain waits on the in-flight count,
//     so a request past the gate completes even if StartDrain lands right
//     after, and a draining server refuses even what admission would
//     accept. The HTTP handlers decode before calling play: "in flight"
//     means "past the gate, doing session work", and a slow body read or
//     response write holds neither Drain nor a limiter slot.
//  2. Input validation against sess, which the caller looked up in shard
//     idx (nil when unknown): the in-process entry points just before play,
//     the HTTP decoders while decoding, so every decide takes the shard lock
//     once. Both read only immutable state, so a malformed request is
//     refused before it can take a limiter slot or charge the shard's
//     modeled backlog.
//  3. Concurrency limiter, bounding concurrency before any admission math.
//     The one stage that differs by caller: blocking (HTTP) queues FIFO in
//     Acquire, bounded by the deadline; non-blocking (in-process) takes
//     TryAcquire, which never waits and never allocates.
//  4. The request's one clock read — after the limiter, so time queued
//     there counts against the deadline. Returned as start for the
//     handlers' timers.
//  5. Deadline gate: Admit refuses what cannot finish inside its budget
//     before it contends on the session's mutex. A batch is one admission
//     unit costed at len(rounds) service quanta.
//  6. Session play: one lock hold, one engine catch-up, len(rounds) draws.
//  7. Accounting, once per request (accountDeadline): one pass over the
//     results, then one goodput observation, one late add and the decision
//     counter — a batch of 256 costs the shared counters what a single
//     decide does. Then (deferred) the service-time sample for the gate's
//     EWMA and the limiter release.
//
// Results land in out[:len(rounds)] in request order; on error nothing was
// played.
func (s *Server) play(sess *session, idx int, deadline time.Time, rounds []Round, out []DecideResponse, blocking bool) (start time.Time, err error) {
	if len(rounds) == 0 {
		return start, errEmptyBatch
	}
	if len(out) < len(rounds) {
		return start, fmt.Errorf("out holds %d responses for %d rounds", len(out), len(rounds))
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.mDrainRejects.Inc()
		return start, ErrDraining
	}
	if sess == nil {
		return start, ErrNoSession
	}
	if err := sess.checkRounds(rounds); err != nil {
		s.mDecideErrs.Inc()
		return start, err
	}
	var lim *admission.Limiter
	if s.adm != nil {
		lim = s.adm.Limiter()
		if blocking {
			if o := lim.Acquire(s.clock, deadline); o != admission.Accepted {
				return start, &ShedError{Outcome: o}
			}
		} else if !lim.TryAcquire() {
			return start, errShedLimiter
		}
	}
	start = s.clock()
	var queueNS int64
	var brownout bool
	if s.adm != nil {
		dec := s.adm.Admit(idx, start, deadline, sess.priority, len(rounds))
		if !dec.OK {
			lim.Release(0, nil)
			return start, &ShedError{Outcome: dec.Outcome, RetryAfter: dec.RetryAfter}
		}
		queueNS, brownout = dec.QueueNS, dec.Brownout
		defer func() {
			elapsed := s.clock().Sub(start)
			s.adm.Observe(idx, elapsed/time.Duration(len(rounds)))
			lim.Release(elapsed, s.clock)
		}()
	}
	sess.playAt(start, rounds, out, queueNS, brownout)
	s.accountDeadline(start, deadline, out[:len(rounds)])
	s.mDecisions.Add(int64(len(rounds)))
	return start, nil
}

// errShedLimiter is the preallocated limiter rejection so the in-process
// fast path sheds without allocating.
var errShedLimiter = &ShedError{Outcome: admission.ShedLimiter}

// accountDeadline classifies one request's delivered decisions against its
// deadline and publishes them in one step: the in-deadline ones as a single
// batched goodput observation, the rest as one add to the late counter. A
// decision's modeled latency is queue wait + decision latency + supply wait
// — the same sum the loadtest harness records — and it is late when that
// overruns what was left of the deadline at start. Unstamped requests are
// goodput by definition.
func (s *Server) accountDeadline(start, deadline time.Time, out []DecideResponse) {
	stamped, budget := !deadline.IsZero(), int64(deadline.Sub(start))
	var good, late, sum, longest int64
	for i := range out {
		total := out[i].QueueNS + out[i].LatencyNS + out[i].WaitedNS
		if stamped && total > budget {
			late++
			continue
		}
		good++
		sum += total
		longest = max(longest, total)
	}
	s.mGoodput.ObserveN(time.Duration(sum), good, time.Duration(longest))
	if late > 0 {
		s.mLate.Add(late)
	}
}

// Decide plays one coordination round in-process, bypassing HTTP and JSON
// entirely — the zero-allocation fast path the paper's microsecond claim
// rests on. The response lands in *out (caller-owned, reusable). Drain
// semantics match the HTTP handler: ErrDraining is the retryable signal.
func (s *Server) Decide(session string, x, y int, out *DecideResponse) error {
	rounds := [1]Round{{X: x, Y: y}}
	var res [1]DecideResponse
	sess, idx := s.lookup(session)
	if _, err := s.play(sess, idx, time.Time{}, rounds[:], res[:], false); err != nil {
		return singleRound(err)
	}
	*out = res[0]
	return nil
}

// DecideBatch plays len(rounds) rounds in-process in one session-lock hold.
// out must have at least len(rounds) elements; results land in request
// order in out[:len(rounds)].
func (s *Server) DecideBatch(session string, rounds []Round, out []DecideResponse) error {
	return s.DecideBatchDeadline(session, time.Time{}, rounds, out)
}

// DecideBatchDeadline is DecideBatch with an absolute deadline shared by
// the whole batch (it arrives, queues and plays together): with admission
// control enabled, a request whose modeled queue+service time exceeds the
// remaining budget returns a retryable *ShedError instead of being served
// late. A zero deadline means unstamped. The admission-enabled path stays
// allocation-free on accept.
func (s *Server) DecideBatchDeadline(session string, deadline time.Time, rounds []Round, out []DecideResponse) error {
	sess, idx := s.lookup(session)
	if _, err := s.play(sess, idx, deadline, rounds, out, false); err != nil {
		return err
	}
	s.mBatches.Inc()
	return nil
}

// Info reports a session's health in-process (the load-test harness's
// health-poll scenario; the HTTP equivalent is GET /v1/sessions/{id}).
func (s *Server) Info(id string) (SessionInfo, error) {
	sess, _ := s.lookup(id)
	if sess == nil {
		return SessionInfo{}, ErrNoSession
	}
	return sess.info(s.draining.Load(), s.clock()), nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad session request: %v", err)
		return
	}
	info, err := s.CreateSession(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, info)
	case errors.Is(err, ErrDraining):
		writeDraining(w)
	case errors.Is(err, ErrSessionExists):
		writeError(w, http.StatusConflict, "session: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "session: %v", err)
	}
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, err := s.Info(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	// Health responses carry the server-wide decide latency so a polling
	// client sees serving load next to session health.
	info.DecideMeanNS = float64(s.mDecideTimer.Mean())
	info.ServerDecisions = s.mDecisions.Value()
	writeJSON(w, http.StatusOK, info)
}

// writePlayError renders a play error on the wire: drain is the retryable
// 503, an unknown session 404, an admission shed 429, and anything else is
// the client's request — 400. A shed carries Retry-After in whole seconds,
// rounded up, minimum 1 (the header has no sub-second resolution); clients
// treat it exactly like the drain 503: retryable, after backoff.
func writePlayError(w http.ResponseWriter, id string, err error) {
	var shed *ShedError
	switch {
	case errors.Is(err, ErrDraining):
		writeDraining(w)
	case errors.Is(err, ErrNoSession):
		writeError(w, http.StatusNotFound, "no session %q", id)
	case errors.As(err, &shed):
		secs := int64(1)
		if shed.RetryAfter > time.Second {
			secs = int64((shed.RetryAfter + time.Second - 1) / time.Second)
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeError(w, http.StatusTooManyRequests, "%v", shed)
	case errors.Is(err, errEmptyBatch):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "decide: %v", err)
	}
}

// handleDecide is decode → play → observe → encode; the round and its
// result ride one-element stack arrays, exactly as in Decide.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*decideScratch)
	defer scratchPool.Put(sc)
	if err := s.decodeSingle(sc, r); err != nil {
		writeError(w, http.StatusBadRequest, "bad decide request: %v", err)
		return
	}
	rounds := [1]Round{{X: sc.req.X, Y: sc.req.Y}}
	var res [1]DecideResponse
	start, err := s.play(sc.sess, sc.idx, deadlineOf(sc.req.DeadlineUnixNS), rounds[:], res[:], true)
	if err != nil {
		writePlayError(w, sc.req.Session, singleRound(err))
		return
	}
	s.mDecideTimer.Observe(s.clock().Sub(start))
	sc.out = res[0].appendJSON(sc.out[:0])
	writeRaw(w, sc.out)
}

// handleDecideBatch amortizes the HTTP exchange, the clock read, the engine
// catch-up and the session-lock hold over every round in the batch — the
// serving path for callers that coordinate many tasks per scheduling tick.
func (s *Server) handleDecideBatch(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*decideScratch)
	defer scratchPool.Put(sc)
	if err := s.decodeBatch(sc, r); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch request: %v", err)
		return
	}
	results := sc.results(len(sc.breq.Rounds))
	start, err := s.play(sc.sess, sc.idx, deadlineOf(sc.breq.DeadlineUnixNS), sc.breq.Rounds, results, true)
	if err != nil {
		writePlayError(w, sc.breq.Session, err)
		return
	}
	elapsed := s.clock().Sub(start)
	s.mBatchTimer.Observe(elapsed)
	// The batch was timed as a whole: serve_decide gets its per-decision
	// share of count and total but no per-decision max (serve_batch has the
	// batch's own).
	s.mDecideTimer.ObserveN(elapsed, int64(len(results)), 0)
	s.mBatches.Inc()
	sc.out = appendBatchJSON(sc.out[:0], sc.breq.Session, results)
	writeRaw(w, sc.out)
}

// handleMetrics renders the registry snapshot as "key value" lines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, kv := range snap {
		fmt.Fprintf(w, "%s %s\n", kv.Key, strconv.FormatFloat(kv.Value, 'g', -1, 64))
	}
}

// StartDrain flips the server into drain mode: new sessions and new
// decisions get retryable 503s; decisions already past the gate complete.
// Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain waits until every in-flight decision has completed, or the deadline
// elapses. It returns the number of decisions still in flight (0 on a clean
// drain). Call StartDrain first.
func (s *Server) Drain(deadline time.Duration) int64 {
	if !s.draining.Load() {
		panic("serve: Drain before StartDrain")
	}
	limit := time.Now().Add(deadline)
	for {
		n := s.inflight.Load()
		if n == 0 || time.Now().After(limit) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// StopSessions halts every session's entanglement source (after drain, so
// no session engine owes catch-up work past shutdown).
func (s *Server) StopSessions() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sessions := make([]*session, 0, len(sh.sessions))
		for _, sess := range sh.sessions {
			sessions = append(sessions, sess)
		}
		sh.mu.Unlock()
		for _, sess := range sessions {
			sess.stop()
		}
	}
}

// WriteMetricsArtifact flushes the registry snapshot to path as a
// machine-readable artifact — the daemon's final act before exit 0.
func (s *Server) WriteMetricsArtifact(path string) error {
	a := metrics.NewArtifact("qcoordd")
	a.Config = map[string]any{
		"shards":   len(s.shards),
		"sessions": s.SessionCount(),
	}
	a.Metrics = s.reg.Snapshot()
	return a.WriteFile(path)
}
