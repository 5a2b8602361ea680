package loadtest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// virtualEpoch anchors virtual-mode wall clocks. The value is arbitrary but
// fixed: committed reports must not depend on when the run happened.
var virtualEpoch = time.Unix(1_700_000_000, 0)

// RunVirtual executes the plan single-threaded against a fresh in-process
// serve.Server driven by the plan's own arrival schedule: request i runs at
// virtual wall time epoch+at_i. Recorded latency is the simulated decision
// latency (LatencyNS + WaitedNS) — the physics-derived quantity the paper
// reports — not host wall time, so the full Result is byte-identical across
// runs and machines.
func RunVirtual(cfg Config) (*Result, error) {
	plan, err := BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	return RunVirtualPlan(plan)
}

// RunVirtualPlan is RunVirtual for a pre-built plan.
func RunVirtualPlan(plan *Plan) (*Result, error) {
	now := virtualEpoch
	srv := serve.NewServer(serve.Config{
		Clock:     func() time.Time { return now },
		Admission: plan.Config.Admission,
	})
	defer srv.StopSessions()

	for _, req := range plan.sessionRequests() {
		if _, err := srv.CreateSession(req); err != nil {
			return nil, fmt.Errorf("create %s: %w", req.ID, err)
		}
	}

	rec := newRecorder(plan.scenarioNames())
	// One response buffer sized to the largest batch, reused for every
	// request — the runner itself stays off the allocator's hot path.
	maxBatch := 1
	for _, sc := range plan.Scenarios {
		if sc.Batch > maxBatch {
			maxBatch = sc.Batch
		}
		if sc.HeavyTail != nil && sc.HeavyTail.Max > maxBatch {
			maxBatch = sc.HeavyTail.Max
		}
	}
	out := make([]serve.DecideResponse, maxBatch)
	budget := plan.Config.DeadlineBudget

	for _, req := range plan.reqs {
		now = virtualEpoch.Add(req.at)
		rec.request(req.scenario)
		if plan.Scenarios[req.scenario].Info {
			if _, err := srv.Info(plan.ids[req.session]); err != nil {
				rec.errorKind(req.scenario, classify(err))
				continue
			}
			rec.poll(req.scenario, 0)
			continue
		}
		// With a deadline budget each batch carries an absolute deadline of
		// (scheduled arrival + budget); the admission gate may shed it.
		var deadline time.Time
		if budget > 0 {
			deadline = now.Add(budget)
		}
		if err := srv.DecideBatchDeadline(plan.ids[req.session], deadline, req.rounds, out); err != nil {
			rec.errorKind(req.scenario, classify(err))
			continue
		}
		for i := range req.rounds {
			// Admission queueing (QueueNS) counts against the decision just
			// like simulated propagation/wait time: it is latency the caller
			// experienced before the answer arrived.
			rec.decision(req.scenario, out[i].QueueNS+out[i].LatencyNS+out[i].WaitedNS, out[i].Win, int64(budget))
		}
	}
	return rec.finish("virtual", plan.Config, plan.Config.Duration), nil
}

// WallOptions tunes RunWall.
type WallOptions struct {
	// Client targets the daemon; required.
	Client *serve.Client
	// CreateSessions provisions the plan's session set before generating
	// load (default true; disable when the harness pre-created them).
	SkipCreateSessions bool
	// Context cancels the run early (default background). In-flight
	// requests finish; unsent ones are not issued and not counted.
	Context context.Context
}

// RunWall executes the plan open-loop against a live daemon: each request
// fires at its scheduled offset from the run start on its own goroutine,
// regardless of whether earlier requests have completed. Latency is wall
// time measured from the request's SCHEDULED arrival, so time spent queued
// behind a slow server counts against the server (the standard correction
// for coordinated omission). Results are real measurements: meaningful, but
// not byte-stable across runs.
//
// Error accounting is designed for the drain-under-load test: drain-mode
// 503s count as Retryable, connection-level failures (a listener that went
// away mid-run) as Transport, anything else as a hard Error. A clean drain
// shows zero hard errors.
func RunWall(cfg Config, opts WallOptions) (*Result, error) {
	plan, err := BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	return RunWallPlan(plan, opts)
}

// RunWallPlan is RunWall for a pre-built plan.
func RunWallPlan(plan *Plan, opts WallOptions) (*Result, error) {
	if opts.Client == nil {
		return nil, fmt.Errorf("loadtest: wall run needs a client")
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if !opts.SkipCreateSessions {
		for _, req := range plan.sessionRequests() {
			if _, err := opts.Client.CreateSession(ctx, req); err != nil {
				return nil, fmt.Errorf("create %s: %w", req.ID, err)
			}
		}
	}

	rec := newRecorder(plan.scenarioNames())
	var mu sync.Mutex
	var wg sync.WaitGroup
	c := opts.Client

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C

loop:
	for _, req := range plan.reqs {
		// Open loop: wait for the scheduled offset, never for completions.
		wait := time.Until(start.Add(req.at))
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break loop
			}
		} else if ctx.Err() != nil {
			break loop
		}
		wg.Add(1)
		go func(req request) {
			defer wg.Done()
			scheduled := start.Add(req.at)
			budget := plan.Config.DeadlineBudget
			var deadline time.Time
			if budget > 0 {
				deadline = scheduled.Add(budget)
			}
			var err error
			var results []serve.DecideResponse
			info := plan.Scenarios[req.scenario].Info
			if info {
				_, err = c.Session(ctx, plan.ids[req.session])
			} else {
				results, err = c.DecideBatchDeadline(ctx, plan.ids[req.session], deadline, req.rounds)
			}
			// Latency from the SCHEDULED arrival (coordinated-omission
			// correction): a request that was shed and retried still counts
			// its full shed-backoff-retry journey against the server.
			lat := time.Since(scheduled).Nanoseconds()
			mu.Lock()
			defer mu.Unlock()
			rec.request(req.scenario)
			if err != nil {
				rec.errorKind(req.scenario, classify(err))
				return
			}
			if info {
				rec.poll(req.scenario, lat)
				return
			}
			for i := range results {
				rec.decision(req.scenario, lat, results[i].Win, int64(budget))
			}
		}(req)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return rec.finish("wall", plan.Config, elapsed), nil
}

// classify sorts an error into the result buckets: admission rejections
// (in-process ShedError or HTTP 429) are Shed — deliberate load-shedding,
// checked before the generic retryable branch; other HTTP error responses
// are Retryable (the drain-mode 503 contract) or a hard Error by status;
// anything that never produced a status — a dial refused after the
// listener closed, a reset keep-alive, a canceled context — is
// transport-level shutdown noise, distinct from a server that answered
// wrongly.
//
// serve and its client return these errors bare, so a type switch and two
// identity compares settle them without errors.As/Is's reflection — under
// overload most requests end here. Anything wrapped takes the chain below.
func classify(err error) errKind {
	switch e := err.(type) {
	case *serve.ShedError:
		return errShed
	case *serve.APIError:
		return classifyAPI(e)
	}
	switch err {
	case serve.ErrDraining:
		return errRetryable
	case serve.ErrNoSession:
		return errHard
	}
	var se *serve.ShedError
	if errors.As(err, &se) {
		return errShed
	}
	var ae *serve.APIError
	if errors.As(err, &ae) {
		return classifyAPI(ae)
	}
	if errors.Is(err, serve.ErrDraining) {
		return errRetryable
	}
	if errors.Is(err, serve.ErrNoSession) {
		return errHard
	}
	return errTransport
}

// classifyAPI buckets an HTTP error response by status.
func classifyAPI(ae *serve.APIError) errKind {
	if ae.Status == http.StatusTooManyRequests {
		return errShed
	}
	if ae.Retryable() {
		return errRetryable
	}
	return errHard
}
