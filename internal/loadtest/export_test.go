package loadtest

import (
	"time"

	"repro/internal/serve"
	"repro/internal/xrand"
)

// oracleRequest is one arrival as the per-request builder laid it out: its
// own heap slice of rounds, nil for an info poll.
type oracleRequest struct {
	at       time.Duration
	scenario int
	session  int
	rounds   []serve.Round
}

// buildPlanPerRequest is BuildPlan's generation loop as it was before the
// flat layout, kept as the oracle for the draw order: the same streams drawn
// in the same order, each request's rounds in a slice of their own, appended
// to a slice grown by append. It trusts cfg; BuildPlan validates.
func buildPlanPerRequest(cfg Config) []oracleRequest {
	cfg = cfg.withDefaults()
	weights := make([]float64, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		weights[i] = sc.Weight
	}
	arrivals := xrand.Derive(cfg.Seed, streamArrivals)
	scenarios := xrand.Derive(cfg.Seed, streamScenario)
	sessions := xrand.Derive(cfg.Seed, streamSessions)
	inputs := xrand.Derive(cfg.Seed, streamInputs)
	sizes := xrand.Derive(cfg.Seed, streamSizes)
	thinning := xrand.Derive(cfg.Seed, streamThinning)

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
	var reqs []oracleRequest
	at := time.Duration(0)
	for {
		var ok bool
		at, ok = next(at)
		if !ok {
			break
		}
		sc := scenarios.Categorical(weights)
		req := oracleRequest{
			at:       at,
			scenario: sc,
			session:  sessions.IntN(cfg.Sessions),
		}
		if !cfg.Scenarios[sc].Info {
			n := cfg.Scenarios[sc].Batch
			if ht := cfg.Scenarios[sc].HeavyTail; ht != nil {
				n = ht.draw(sizes)
			}
			if n < 1 {
				n = 1
			}
			req.rounds = make([]serve.Round, n)
			for i := range req.rounds {
				req.rounds[i] = serve.Round{X: inputs.IntN(2), Y: inputs.IntN(2)}
			}
		}
		reqs = append(reqs, req)
	}
	return reqs
}
