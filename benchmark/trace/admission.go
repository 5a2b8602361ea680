package main

// Layer: admission — the limiter and the per-shard deadline gate in front of
// the session lock.

import (
	"errors"
	"fmt"
	"time"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
	"repro/internal/admission"
	"repro/internal/serve"
)

// probeAdmission measures the gate's four calls in isolation, and what
// enabling admission adds to an in-process single decide.
func probeAdmission(m values, unit time.Duration) error {
	cfg := admission.Config{InitialService: 100 * time.Microsecond, MaxBacklog: 10 * time.Millisecond}
	ctl := admission.NewController(cfg, 1)
	const loop = 1 << 14

	// Accept path: arrivals a millisecond apart drain the modeled backlog
	// (100µs a round) between calls, so every request is admitted.
	now := suite.Epoch
	var refused int
	m["admission.admit_accept_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(time.Millisecond)
			if !ctl.Admit(0, now, time.Time{}, admission.PriorityNormal, 1).OK {
				refused++
			}
		}
	})
	if refused > 0 {
		return fmt.Errorf("admission probe: %d requests refused on the accept path", refused)
	}
	// Shed path: a deadline shorter than one service time can never be met.
	var admitted int
	m["admission.admit_shed_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			if ctl.Admit(0, now, now.Add(time.Microsecond), admission.PriorityNormal, 1).OK {
				admitted++
			}
		}
	})
	if admitted > 0 {
		return fmt.Errorf("admission probe: %d infeasible requests admitted on the shed path", admitted)
	}
	lim := ctl.Limiter()
	m["admission.limiter_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			if lim.TryAcquire() {
				lim.Release(0, nil)
			}
		}
	})
	m["admission.observe_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			ctl.Observe(0, 50*time.Microsecond)
		}
	})

	// Overhead per request: frozen-clock single decides with admission on
	// and off. A frozen clock never drains the modeled backlog, so the gate
	// is given a service time short enough that it cannot fill during the
	// probe and nothing sheds.
	roomy := admission.Config{InitialService: time.Nanosecond, MaxBacklog: time.Hour}
	decide := func(adm *admission.Config) (float64, error) {
		srv := serve.NewServer(serve.Config{Clock: func() time.Time { return suite.Epoch }, Admission: adm})
		defer srv.StopSessions()
		if _, err := srv.CreateSession(serve.SessionRequest{ID: "probe", Endpoints: []string{"a", "b"}, Seed: 9}); err != nil {
			return 0, err
		}
		var err error
		ns := perOp(unit, loop, func(n int) { err = errors.Join(err, decideOn(srv, []string{"probe"}, n)) })
		return ns, err
	}
	var on, off []float64
	for i := 0; i < 3; i++ {
		a, err := decide(&roomy)
		if err != nil {
			return fmt.Errorf("admission probe: %w", err)
		}
		b, err := decide(nil)
		if err != nil {
			return fmt.Errorf("admission probe: %w", err)
		}
		on, off = append(on, a), append(off, b)
	}
	m["admission.overhead_ns_per_req"] = benchlib.Median(on) - benchlib.Median(off)
	return nil
}
