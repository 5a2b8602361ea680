package suite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"repro/benchmark/benchlib"
	"repro/internal/serve"
)

// Epoch anchors the virtual clock of handler_mix. Arbitrary but fixed: the
// simulated statistics must not depend on when the run happened.
var Epoch = time.Unix(1_700_000_000, 0)

// memWriter is the in-memory http.ResponseWriter handler_mix serves into,
// reused across requests so the harness allocates nothing per request.
type memWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// reusedBody is a request body that is re-pointed at the next request's
// bytes instead of being reallocated.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// decideWire is the part of the HTTP JSON decide response the oracle reads.
type decideWire struct {
	A    int    `json:"a"`
	B    int    `json:"b"`
	Mode string `json:"mode"`
	Win  bool   `json:"win"`
}

// handlerGolden is what benchmark/golden/handler_mix.json pins.
type handlerGolden struct {
	Requests      int64 `json:"requests"`
	Decisions     int64 `json:"decisions"`
	Wins          int64 `json:"wins"`
	QuantumRounds int64 `json:"quantum_rounds"`
	QuantumWins   int64 `json:"quantum_wins"`
	// Bytes and FNV-64a of the decide and batch response stream.
	ResponseBytes int64  `json:"response_bytes"`
	ResponseFNV   string `json:"response_fnv64a"`
}

// HandlerMix generates the handler_mix plan: 2e4 req/s on the virtual clock
// over 8 sessions.
func HandlerMix(e Env) *benchlib.Mix {
	return benchlib.GenMix(e.Seed, 2e4, e.virtual(time.Second), 8)
}

// HandlerDriver serves a handler_mix plan's requests into an http.Handler
// one at a time, reusing one *http.Request per route, one request body and
// one in-memory ResponseWriter, so the harness allocates nothing per
// request. It is not safe for concurrent use.
type HandlerDriver struct {
	mix       *benchlib.Mix
	bodies    [][]byte
	body      *reusedBody
	decideReq *http.Request
	batchReq  *http.Request
	infoReqs  []*http.Request
	w         *memWriter
}

// NewHandlerDriver renders every request body of mix up front.
func NewHandlerDriver(mix *benchlib.Mix) (*HandlerDriver, error) {
	d := &HandlerDriver{
		mix:      mix,
		bodies:   make([][]byte, len(mix.Ops)),
		body:     &reusedBody{},
		infoReqs: make([]*http.Request, len(mix.Sessions)),
		w:        &memWriter{header: make(http.Header)},
	}
	for i := range mix.Ops {
		d.bodies[i] = mix.Ops[i].Body(mix.Sessions[mix.Ops[i].Session].ID)
	}
	newRequest := func(method, path string) (*http.Request, error) {
		r, err := http.NewRequest(method, path, nil)
		if err != nil {
			return nil, err
		}
		r.Body = d.body
		return r, nil
	}
	var err error
	if d.decideReq, err = newRequest(http.MethodPost, "/v1/decide"); err != nil {
		return nil, err
	}
	if d.batchReq, err = newRequest(http.MethodPost, "/v1/decide/batch"); err != nil {
		return nil, err
	}
	for i, s := range mix.Sessions {
		if d.infoReqs[i], err = newRequest(http.MethodGet, "/v1/sessions/"+s.ID); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// NewServer builds a fresh server whose clock reads *now, with the plan's
// sessions registered. The caller stops its sessions.
func (d *HandlerDriver) NewServer(now *time.Time) (*serve.Server, error) {
	srv := serve.NewServer(serve.Config{Clock: func() time.Time { return *now }})
	for _, s := range d.mix.Sessions {
		if _, err := srv.CreateSession(serve.SessionRequest{ID: s.ID, Endpoints: s.Endpoints, Seed: s.Seed}); err != nil {
			srv.StopSessions()
			return nil, fmt.Errorf("handler_mix: create %s: %w", s.ID, err)
		}
	}
	return srv, nil
}

// Serve passes request i of the plan through h and returns the response
// status and body; the body is valid until the next call.
func (d *HandlerDriver) Serve(h http.Handler, i int) (status int, body []byte) {
	op := &d.mix.Ops[i]
	var r *http.Request
	switch op.Kind {
	case benchlib.OpSingle:
		r = d.decideReq
	case benchlib.OpBatch:
		r = d.batchReq
	default:
		r = d.infoReqs[op.Session]
	}
	d.body.Reset(d.bodies[i])
	r.ContentLength = int64(len(d.bodies[i]))
	d.w.status, d.w.body = http.StatusOK, d.w.body[:0]
	h.ServeHTTP(d.w, r)
	return d.w.status, d.w.body
}

// setupHandlerMix builds the codec workload: the benchmark's own seeded
// generator drives (*serve.Server).ServeHTTP — mux, JSON decode, the decide
// pipeline, the append encoder — with 60 % single decides, 30 % 64-round
// batches and 10 % session-info reads, at 2e4 req/s on the virtual clock.
func setupHandlerMix(e Env) (*Instance, error) {
	mix := HandlerMix(e)
	if len(mix.Ops) == 0 {
		return nil, fmt.Errorf("handler_mix: empty plan")
	}
	driver, err := NewHandlerDriver(mix)
	if err != nil {
		return nil, err
	}

	// replay serves the whole plan on a fresh server. With verify set it
	// also hashes and parses every response — the full oracle, too costly
	// for a timed repetition, which checks status and byte count only.
	replay := func(verify bool) (Sim, handlerGolden, error) {
		now := Epoch
		srv, err := driver.NewServer(&now)
		if err != nil {
			return Sim{}, handlerGolden{}, err
		}
		defer srv.StopSessions()
		var out Sim
		var g handlerGolden
		hash := fnv.New64a()
		var single decideWire
		var batch struct {
			Results []decideWire `json:"results"`
		}
		var info struct {
			ID string `json:"id"`
		}
		count := func(d decideWire) error {
			if d.A&^1 != 0 || d.B&^1 != 0 {
				return fmt.Errorf("oracle: handler_mix: response outputs (%d,%d) are not bits", d.A, d.B)
			}
			if d.Win {
				g.Wins++
			}
			if d.Mode == "quantum" {
				g.QuantumRounds++
				if d.Win {
					g.QuantumWins++
				}
			}
			return nil
		}
		for i := range mix.Ops {
			op := &mix.Ops[i]
			now = Epoch.Add(op.At)
			status, body := driver.Serve(srv, i)
			out.Attempted++
			if status != http.StatusOK {
				// The plan schedules no error response, so any is a failure.
				out.Failed++
				continue
			}
			out.Decisions += int64(len(op.Rounds))
			// A session-info body carries server-wide totals from the
			// process-global metrics registry, which grow from one
			// repetition to the next: it is checked below but kept out of
			// the byte count and the hash, which cover decisions only.
			if op.Kind != benchlib.OpInfo {
				g.ResponseBytes += int64(len(body))
			}
			if !verify {
				continue
			}
			switch op.Kind {
			case benchlib.OpSingle:
				hash.Write(body)
				if err := json.Unmarshal(body, &single); err != nil {
					return Sim{}, g, fmt.Errorf("oracle: handler_mix: decide response: %w", err)
				}
				if err := count(single); err != nil {
					return Sim{}, g, err
				}
			case benchlib.OpBatch:
				hash.Write(body)
				batch.Results = batch.Results[:0]
				if err := json.Unmarshal(body, &batch); err != nil {
					return Sim{}, g, fmt.Errorf("oracle: handler_mix: batch response: %w", err)
				}
				if len(batch.Results) != len(op.Rounds) {
					return Sim{}, g, fmt.Errorf("oracle: handler_mix: batch of %d rounds answered with %d results", len(op.Rounds), len(batch.Results))
				}
				for _, d := range batch.Results {
					if err := count(d); err != nil {
						return Sim{}, g, err
					}
				}
			default:
				if err := json.Unmarshal(body, &info); err != nil {
					return Sim{}, g, fmt.Errorf("oracle: handler_mix: info response: %w", err)
				}
				if want := mix.Sessions[op.Session].ID; info.ID != want {
					return Sim{}, g, fmt.Errorf("oracle: handler_mix: info for %s answered as %q", want, info.ID)
				}
			}
		}
		g.Requests, g.Decisions = out.Attempted, out.Decisions
		g.ResponseFNV = fmt.Sprintf("%016x", hash.Sum64())
		out.Digest = fmt.Sprintf("requests=%d failed=%d decisions=%d response_bytes=%d",
			out.Attempted, out.Failed, out.Decisions, g.ResponseBytes)
		return out, g, nil
	}

	warm, g, err := replay(true)
	if err != nil {
		return nil, err
	}
	if warm.Failed == 0 && warm.Decisions != mix.Decisions() {
		return nil, fmt.Errorf("oracle: handler_mix: delivered %d decisions, plan asks for %d", warm.Decisions, mix.Decisions())
	}
	if err := checkWinRate("handler_mix quantum-mode", g.QuantumWins, g.QuantumRounds, 0, quantumBound); err != nil {
		return nil, err
	}
	if err := checkWinRate("handler_mix overall", g.Wins, g.Decisions, classicalFloor, 1); err != nil {
		return nil, err
	}
	golden, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := checkGolden(e, "handler_mix", append(golden, '\n')); err != nil {
		return nil, err
	}
	return &Instance{
		Rep: func() (Sim, error) {
			s, _, err := replay(false)
			return s, err
		},
		Warm:   warm,
		Inputs: fmt.Sprintf("%d requests, plan fnv64a %016x", len(mix.Ops), mix.Hash()),
	}, nil
}
