package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// FuzzDecideHandlers throws arbitrary bodies at both decide endpoints. Each
// input gets a fresh admission-enabled server on a frozen clock, so a
// failure replays from its input alone. Whatever arrives, the handlers must
// not panic, must answer with a status from the wire contract, must render
// a 200 that encoding/json reads back as one result per requested round,
// and must leave nothing behind: no limiter slot held, nothing in flight
// for Drain to wait on.
//
// The named seeds live in testdata/fuzz/FuzzDecideHandlers; the oversized
// body is built here rather than committed.
func FuzzDecideHandlers(f *testing.F) {
	f.Add(append([]byte(`{"session":"f","x":0,"y":0,"rounds":[`), bytes.Repeat([]byte(" "), maxBodyBytes+1)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewServer(Config{Clock: func() time.Time { return testEpoch }, Admission: testAdmission()})
		defer srv.StopSessions()
		if _, err := srv.CreateSession(SessionRequest{ID: "f", Endpoints: twoEndpoints(), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// What the server's own decoder will make of the body, for the
		// result count (a body the batch decoder rejects never reaches 200).
		var asBatch DecideBatchRequest
		_ = json.Unmarshal(body, &asBatch)

		for _, path := range []string{"/v1/decide", "/v1/decide/batch"} {
			rec := post(srv, path, string(body))
			switch rec.Code {
			case http.StatusOK:
				want := 1
				var got []DecideResponse
				if path == "/v1/decide" {
					got = make([]DecideResponse, 1)
					if err := json.Unmarshal(rec.Body.Bytes(), &got[0]); err != nil {
						t.Fatalf("%s: 200 body does not decode: %v\n%s", path, err, rec.Body)
					}
				} else {
					want = len(asBatch.Rounds)
					var resp DecideBatchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Fatalf("%s: 200 body does not decode: %v\n%s", path, err, rec.Body)
					}
					got = resp.Results
				}
				if len(got) != want || want == 0 {
					t.Fatalf("%s: %d results for %d rounds", path, len(got), want)
				}
				for i, r := range got {
					if r.Session != "f" || r.A&^1 != 0 || r.B&^1 != 0 || r.Mode == "" || r.Level == "" {
						t.Fatalf("%s: result %d malformed: %+v", path, i, r)
					}
				}
			case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				errorText(t, rec) // every refusal carries the JSON error envelope
			default:
				t.Fatalf("%s: status %d outside the wire contract\n%s", path, rec.Code, rec.Body)
			}
			if n := srv.Admission().Limiter().Inflight(); n != 0 {
				t.Fatalf("%s: limiter still holds %d slots", path, n)
			}
		}
		srv.StartDrain()
		if left := srv.Drain(time.Second); left != 0 {
			t.Fatalf("drain left %d in flight", left)
		}
	})
}

// FuzzCreateSession throws arbitrary supply provisioning at CreateSession —
// pair rate, fiber run, pool capacity, base visibility, health window, pair
// budget and one fault window (kind 0 = none) together — and plays whatever
// it accepts: a 4-round batch at +1 ms and again at +30 ms on an injected
// clock. Either creation errors, or every round answers with binary
// outputs, a visibility in [0, 1], a non-negative latency and a level of
// the ladder. Nothing may panic.
//
// The named seeds live in testdata/fuzz/FuzzCreateSession.
func FuzzCreateSession(f *testing.F) {
	levels := map[string]bool{}
	for l := 0; l < core.NumLevels; l++ {
		levels[core.DegradeLevel(l).String()] = true
	}
	f.Fuzz(func(t *testing.T, pairRate, fiberM float64, poolCap int, baseVis float64, healthWindow int, pairBudget int64,
		kind uint8, startMS, endMS, severity float64) {
		clk := newManualClock(testEpoch)
		srv := NewServer(Config{Clock: clk.Now})
		defer srv.StopSessions()
		req := SessionRequest{
			ID:             "f",
			Endpoints:      twoEndpoints(),
			Seed:           1,
			PairRate:       pairRate,
			FiberLengthM:   fiberM,
			PoolCap:        poolCap,
			BaseVisibility: baseVis,
			HealthWindow:   healthWindow,
			PairBudget:     pairBudget,
		}
		if kind != 0 {
			k := faults.Kind(1 + int(kind-1)%faults.NumKinds)
			req.Faults = []FaultWindow{{Kind: k.String(), StartMS: startMS, EndMS: endMS, Severity: severity}}
		}
		if _, err := srv.CreateSession(req); err != nil {
			return
		}
		rounds := []Round{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 1, Y: 1}}
		out := make([]DecideResponse, len(rounds))
		for _, at := range []time.Duration{time.Millisecond, 30 * time.Millisecond} {
			clk.Advance(testEpoch.Add(at).Sub(clk.Now()))
			if err := srv.DecideBatch("f", rounds, out); err != nil {
				t.Fatalf("+%v: %v", at, err)
			}
			for i, d := range out {
				if d.A&^1 != 0 || d.B&^1 != 0 || !(d.Visibility >= 0 && d.Visibility <= 1) || d.LatencyNS < 0 || !levels[d.Level] {
					t.Fatalf("+%v: round %d malformed: %+v", at, i, d)
				}
			}
		}
	})
}
