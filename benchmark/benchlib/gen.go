package benchlib

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"
)

// Request kinds of the handler_mix workload.
const (
	OpSingle = iota // POST /v1/decide
	OpBatch         // POST /v1/decide/batch, MixBatchRounds rounds
	OpInfo          // GET /v1/sessions/{id}
)

// The handler_mix traffic shape. The 60/30/10 split is the daemon's
// documented default serving mix; 64 rounds is the batch size whose codec
// share the README's stage table quotes.
const (
	MixSingleShare = 0.60
	MixBatchShare  = 0.30
	MixBatchRounds = 64
)

// Round is one (x, y) input pair.
type Round struct{ X, Y uint8 }

// Op is one generated request of the handler_mix plan.
type Op struct {
	At      time.Duration // virtual arrival offset from the epoch
	Kind    uint8
	Session int
	Rounds  []Round // 1 for OpSingle, MixBatchRounds for OpBatch, nil for OpInfo
}

// MixSession is one session the plan spreads load over.
type MixSession struct {
	ID        string
	Endpoints []string
	Seed      uint64
}

// Mix is a fully materialized handler_mix plan: an open-loop Poisson
// arrival schedule in virtual time plus the session set it targets. It is
// a pure function of (seed, rps, duration, sessions): math/rand's seeded
// sequence is frozen by the Go 1 compatibility promise.
type Mix struct {
	Sessions []MixSession
	Ops      []Op
}

// GenMix builds the plan. Arrivals, kinds, session routing and round inputs
// all come from one seeded stream, drawn in a fixed order per request.
func GenMix(seed uint64, rps float64, dur time.Duration, sessions int) *Mix {
	rng := rand.New(rand.NewSource(int64(seed)))
	m := &Mix{Sessions: make([]MixSession, sessions)}
	for i := range m.Sessions {
		m.Sessions[i] = MixSession{
			ID:        fmt.Sprintf("hm-%03d", i),
			Endpoints: []string{fmt.Sprintf("hm-%03d-a", i), fmt.Sprintf("hm-%03d-b", i)},
			Seed:      rng.Uint64() | 1, // the server derives its own seed from the ID when given 0
		}
	}
	meanGap := float64(time.Second) / rps
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * meanGap)
		if at >= dur {
			break
		}
		op := Op{At: at, Session: rng.Intn(sessions)}
		switch u := rng.Float64(); {
		case u < MixSingleShare:
			op.Kind = OpSingle
			op.Rounds = make([]Round, 1)
		case u < MixSingleShare+MixBatchShare:
			op.Kind = OpBatch
			op.Rounds = make([]Round, MixBatchRounds)
		default:
			op.Kind = OpInfo
		}
		for i := range op.Rounds {
			op.Rounds[i] = Round{X: uint8(rng.Intn(2)), Y: uint8(rng.Intn(2))}
		}
		m.Ops = append(m.Ops, op)
	}
	return m
}

// Decisions returns how many rounds the plan asks for.
func (m *Mix) Decisions() int64 {
	var n int64
	for i := range m.Ops {
		n += int64(len(m.Ops[i].Rounds))
	}
	return n
}

// Body renders op's HTTP JSON request body for session id (nil for OpInfo).
// This is the wire format of POST /v1/decide and POST /v1/decide/batch.
func (op *Op) Body(id string) []byte {
	switch op.Kind {
	case OpSingle:
		b := append([]byte(`{"session":`), strconv.Quote(id)...)
		b = append(b, `,"x":`...)
		b = strconv.AppendUint(b, uint64(op.Rounds[0].X), 10)
		b = append(b, `,"y":`...)
		b = strconv.AppendUint(b, uint64(op.Rounds[0].Y), 10)
		return append(b, '}')
	case OpBatch:
		b := append([]byte(`{"session":`), strconv.Quote(id)...)
		b = append(b, `,"rounds":[`...)
		for i, r := range op.Rounds {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"x":`...)
			b = strconv.AppendUint(b, uint64(r.X), 10)
			b = append(b, `,"y":`...)
			b = strconv.AppendUint(b, uint64(r.Y), 10)
			b = append(b, '}')
		}
		return append(b, `]}`...)
	}
	return nil
}

// Hash is an FNV-64a over the whole plan — arrival times, kinds, routing,
// inputs and session seeds — for the generator determinism test and for
// result.json, so two runs can be shown to have seen the same inputs.
func (m *Mix) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range m.Sessions {
		h.Write([]byte(s.ID))
		put(s.Seed)
	}
	for i := range m.Ops {
		op := &m.Ops[i]
		put(uint64(op.At))
		put(uint64(op.Kind)<<32 | uint64(op.Session))
		for _, r := range op.Rounds {
			h.Write([]byte{r.X, r.Y})
		}
	}
	return h.Sum64()
}
