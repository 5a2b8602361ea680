package main

// Layer: serve — the decide pipeline behind both the HTTP handlers and the
// in-process API. Onion depth 0 of handler_mix (ServeHTTP) and depth 1 of
// every serving workload (DecideBatchDeadline / Info) are replayed here.

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
	"repro/internal/serve"
)

// depthStats is what one onion depth's replay of a plan produced: host time
// for the whole replay, and the simulated statistics every depth that plays
// rounds must agree on.
type depthStats struct {
	elapsed   time.Duration
	decisions int64
	wins      int64
	shed      int64
}

// replayHandler is onion depth 0 of handler_mix with spans: the plan through
// (*serve.Server).ServeHTTP, one span per sampled request.
func replayHandler(d *suite.HandlerDriver, mix *benchlib.Mix, t *tracer) (depthStats, error) {
	var st depthStats
	now := suite.Epoch
	srv, err := d.NewServer(&now)
	if err != nil {
		return st, err
	}
	defer srv.StopSessions()
	t.enter(0)
	start := time.Now()
	for i := range mix.Ops {
		now = suite.Epoch.Add(mix.Ops[i].At)
		sp := t.begin("serve", "ServeHTTP", i)
		status, _ := d.Serve(srv, i)
		t.end(sp)
		if status != http.StatusOK {
			return st, fmt.Errorf("depth 0: request %d answered %d", i, status)
		}
		st.decisions += int64(len(mix.Ops[i].Rounds))
	}
	st.elapsed = time.Since(start)
	t.count("serve.ServeHTTP.calls", int64(len(mix.Ops)))
	return st, nil
}

// replayServe is onion depth 1: the plan through the in-process decide API
// on a fresh server whose clock is the arrival schedule, exactly as
// loadtest.RunVirtualPlan drives it. accepted, when non-nil, records which
// requests reached their session (admission sheds the rest), for the depths
// beneath to replay.
func replayServe(p *plan, t *tracer, accepted []bool) (depthStats, error) {
	var st depthStats
	now := suite.Epoch
	srv := serve.NewServer(serve.Config{Clock: func() time.Time { return now }, Admission: p.admission})
	defer srv.StopSessions()
	ids := make([]string, len(p.sessions))
	for i, s := range p.sessions {
		if _, err := srv.CreateSession(s); err != nil {
			return st, fmt.Errorf("depth 1: create %s: %w", s.ID, err)
		}
		ids[i] = s.ID
	}
	out := make([]serve.DecideResponse, p.maxBatch())
	var calls, polls int64
	t.enter(1)
	start := time.Now()
	for i := range p.reqs {
		r := &p.reqs[i]
		now = suite.Epoch.Add(r.at)
		if r.rounds == nil {
			sp := t.begin("serve", "Info", i)
			_, err := srv.Info(ids[r.session])
			t.end(sp)
			if err != nil {
				return st, fmt.Errorf("depth 1: request %d: %w", i, err)
			}
			polls++
			if accepted != nil {
				accepted[i] = true
			}
			continue
		}
		var deadline time.Time
		if p.budget > 0 {
			deadline = now.Add(p.budget)
		}
		sp := t.begin("serve", "DecideBatchDeadline", i)
		err := srv.DecideBatchDeadline(ids[r.session], deadline, r.rounds, out)
		t.end(sp)
		calls++
		if err != nil {
			var shed *serve.ShedError
			if !errors.As(err, &shed) {
				return st, fmt.Errorf("depth 1: request %d: %w", i, err)
			}
			st.shed++
			continue
		}
		if accepted != nil {
			accepted[i] = true
		}
		for j := range r.rounds {
			if out[j].Win {
				st.wins++
			}
		}
		st.decisions += int64(len(r.rounds))
	}
	st.elapsed = time.Since(start)
	t.count("serve.DecideBatchDeadline.calls", calls)
	t.count("serve.Info.calls", polls)
	t.count("admission.shed", st.shed)
	if adm := srv.Admission(); adm != nil {
		for s := 0; s < adm.Shards(); s++ {
			if adm.Brownout(s) {
				// The depths beneath replay accepted requests as full rounds.
				return st, fmt.Errorf("depth 1: shard %d ended in brownout, which the inner depths do not replay", s)
			}
		}
	}
	return st, nil
}

// kinds names the three request kinds in metric suffixes, indexed by
// benchlib.Op*.
var kinds = [3]string{"single", "batch64", "info"}

// probeServe measures the serving layer on a fixed probe mix (the
// handler_mix shape at a quarter of its length): per-request handler and
// in-process host time by request kind, the codec as their difference,
// allocations per request, and the frozen-clock pipeline cost.
func probeServe(m values, unit time.Duration) error {
	mix := benchlib.GenMix(11, 2e4, 250*time.Millisecond, 8)
	driver, err := suite.NewHandlerDriver(mix)
	if err != nil {
		return err
	}

	// Handler pass: every request timed through ServeHTTP.
	handlerPass := func(samples *[3][]float64) error {
		now := suite.Epoch
		srv, err := driver.NewServer(&now)
		if err != nil {
			return err
		}
		defer srv.StopSessions()
		for i := range mix.Ops {
			now = suite.Epoch.Add(mix.Ops[i].At)
			start := time.Now()
			status, _ := driver.Serve(srv, i)
			d := time.Since(start)
			if status != http.StatusOK {
				return fmt.Errorf("serve probe: request %d answered %d", i, status)
			}
			samples[mix.Ops[i].Kind] = append(samples[mix.Ops[i].Kind], float64(d.Nanoseconds()))
		}
		return nil
	}
	// Allocation pass: one kind's requests through ServeHTTP on a frozen
	// clock, so no supply-chain catch-up allocates and what is counted is
	// the handler's own: mux, decode, pipeline, encode.
	allocPass := func(kind int) (mallocs, bytes float64, err error) {
		now := suite.Epoch
		srv, err := driver.NewServer(&now)
		if err != nil {
			return 0, 0, err
		}
		defer srv.StopSessions()
		var before, after runtime.MemStats
		served := 0
		runtime.ReadMemStats(&before)
		for i := range mix.Ops {
			if int(mix.Ops[i].Kind) != kind {
				continue
			}
			if status, _ := driver.Serve(srv, i); status != http.StatusOK {
				return 0, 0, fmt.Errorf("serve probe: request %d answered %d", i, status)
			}
			served++
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(served), float64(after.TotalAlloc-before.TotalAlloc) / float64(served), nil
	}
	// In-process pass: the same plan through Decide / DecideBatch / Info.
	inprocPass := func(samples *[3][]float64) error {
		now := suite.Epoch
		srv, err := driver.NewServer(&now)
		if err != nil {
			return err
		}
		defer srv.StopSessions()
		p := planFromMix(mix)
		out := make([]serve.DecideResponse, p.maxBatch())
		for i := range p.reqs {
			r := &p.reqs[i]
			id := p.sessions[r.session].ID
			now = suite.Epoch.Add(r.at)
			start := time.Now()
			switch mix.Ops[i].Kind {
			case benchlib.OpSingle:
				err = srv.Decide(id, r.rounds[0].X, r.rounds[0].Y, &out[0])
			case benchlib.OpBatch:
				err = srv.DecideBatch(id, r.rounds, out)
			default:
				_, err = srv.Info(id)
			}
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("serve probe: request %d: %w", i, err)
			}
			samples[mix.Ops[i].Kind] = append(samples[mix.Ops[i].Kind], float64(d.Nanoseconds()))
		}
		return nil
	}

	var handler, inproc [3][]float64
	for pass := 0; pass < 3; pass++ { // the first pass of each warms pools and caches
		if pass == 1 {
			handler, inproc = [3][]float64{}, [3][]float64{}
		}
		if err := handlerPass(&handler); err != nil {
			return err
		}
		if err := inprocPass(&inproc); err != nil {
			return err
		}
	}
	for k, name := range kinds {
		h50 := benchlib.Quantile(handler[k], 0.50)
		m["serve.handler_us_p50."+name] = h50 / 1e3
		m["serve.handler_us_p99."+name] = benchlib.Quantile(handler[k], 0.99) / 1e3
		if _, _, err := allocPass(k); err != nil { // warm the pooled scratch
			return err
		}
		mallocs, bytes, err := allocPass(k)
		if err != nil {
			return err
		}
		m["serve.allocs_per_req."+name] = mallocs
		m["serve.alloc_bytes_per_req."+name] = bytes
		if k == benchlib.OpInfo {
			continue
		}
		i50 := benchlib.Quantile(inproc[k], 0.50)
		m["serve.inproc_ns_per_req."+name] = i50
		m["serve.codec_ns_per_req."+name] = h50 - i50
	}

	// Frozen clock: no engine catch-up, pools empty, so every round rides
	// the classical rung and what is left above core's fallback round is the
	// pipeline itself — lookup, clock read, session lock, counters.
	srv := serve.NewServer(serve.Config{Clock: func() time.Time { return suite.Epoch }})
	defer srv.StopSessions()
	var ids []string
	for i := 0; i < 8; i++ {
		info, err := srv.CreateSession(serve.SessionRequest{Endpoints: []string{"a", "b"}, Seed: uint64(i + 1)})
		if err != nil {
			return err
		}
		ids = append(ids, info.ID)
	}
	var decideErr error
	const loop = 1 << 14
	single := perOp(unit, loop, func(n int) { decideErr = errors.Join(decideErr, decideOn(srv, ids, n)) })
	m["serve.pipeline_ns_per_req"] = single - m["core.round_ns.fallback"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decideErr = errors.Join(decideErr, decideOn(srv, ids, loop))
	runtime.ReadMemStats(&after)
	m["serve.inproc_allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / loop

	// Two goroutines on disjoint halves of the sessions against one: what is
	// left to contend on is the server's shared atomics and shard locks.
	var errA, errB error
	pair := perOp(unit, loop, func(n int) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); errA = decideOn(srv, ids[:4], n/2) }()
		go func() { defer wg.Done(); errB = decideOn(srv, ids[4:], n/2) }()
		wg.Wait()
	})
	if err := errors.Join(decideErr, errA, errB); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	m["serve.scale_2g"] = single / pair

	created := 0
	var createErr error
	perCreate := perOp(unit, 16, func(n int) {
		for i := 0; i < n; i++ {
			created++
			if _, err := srv.CreateSession(serve.SessionRequest{ID: fmt.Sprintf("probe-%d", created), Endpoints: []string{"a", "b"}, Seed: uint64(created)}); err != nil {
				createErr = err
			}
		}
	})
	if createErr != nil {
		return createErr
	}
	m["serve.create_session_us"] = perCreate / 1e3
	return nil
}

// decideOn plays n frozen-clock single decides round-robin over ids, whose
// length must be a power of two.
func decideOn(srv *serve.Server, ids []string, n int) error {
	var out serve.DecideResponse
	for i := 0; i < n; i++ {
		if err := srv.Decide(ids[i&(len(ids)-1)], i&1, i>>1&1, &out); err != nil {
			return err
		}
	}
	return nil
}
