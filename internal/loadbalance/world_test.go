package loadbalance

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/workload"
	"repro/internal/xrand"
)

// worldPair drives the two-FIFO World and the scan-and-shift oracle through
// one script and fails on the first divergence: the served (meta, arrival)
// sequence of every serve, and the server's qlen/numC columns after it.
type worldPair struct {
	t      testing.TB
	d      Discipline
	w      *World
	o      *scanWorld
	served int
}

// newWorldPair builds both worlds with m servers. seqStart pre-loads every
// server's push counter, so a script can straddle the uint32 wrap.
func newWorldPair(t testing.TB, d Discipline, m int, seqStart uint32) *worldPair {
	p := &worldPair{t: t, d: d, w: NewWorld(m), o: newScanWorld(m)}
	for i := range p.w.seq {
		p.w.seq[i] = seqStart
	}
	return p
}

func (p *worldPair) push(id int, task workload.Task, slot int) {
	r := rec{meta: packTask(task), arrival: int32(slot)}
	p.w.push(id, r)
	p.o.push(id, r)
	p.checkColumns(id, "push")
}

func (p *worldPair) serve(id int) {
	p.t.Helper()
	var b [2]rec
	first, second, n := p.w.serve(id, p.d)
	got, want := []rec{first, second}[:n], p.o.serve(id, p.d, b[:0])
	if len(got) != len(want) {
		p.t.Fatalf("%v server %d: served %d tasks, oracle %d", p.d, id, len(got), len(want))
	}
	for i := range got {
		if got[i].meta != want[i].meta || got[i].arrival != want[i].arrival {
			p.t.Fatalf("%v server %d: served[%d] = (meta %d, slot %d), oracle (meta %d, slot %d)",
				p.d, id, i, got[i].meta, got[i].arrival, want[i].meta, want[i].arrival)
		}
	}
	p.served += len(got)
	p.checkColumns(id, "serve")
}

func (p *worldPair) checkColumns(id int, after string) {
	p.t.Helper()
	if p.w.qlen[id] != p.o.qlen[id] || p.w.numC[id] != p.o.numC[id] {
		p.t.Fatalf("%v server %d after %s: qlen/numC = %d/%d, oracle %d/%d",
			p.d, id, after, p.w.qlen[id], p.w.numC[id], p.o.qlen[id], p.o.numC[id])
	}
}

// drain serves every server until the oracle is empty (and, by the column
// check after every serve, the World with it), so the order of whatever a
// script left queued is compared too.
func (p *worldPair) drain() {
	p.t.Helper()
	for id := range p.o.qlen {
		for p.o.qlen[id] > 0 {
			p.serve(id)
		}
	}
}

// TestWorldMatchesScanOracle replays random push/serve scripts on both
// worlds for every discipline. Each script cycles through a mixed fill
// (queues grow long with both types interleaved), a drain (which a C-first
// discipline turns all-E and E-first all-C before it reaches empty), a
// single-type fill of each type, and a balanced churn — the shapes the
// disciplines branch on. One server in three starts its push counter just
// below the uint32 wrap.
func TestWorldMatchesScanOracle(t *testing.T) {
	const servers, classes = 3, 3
	for d := BatchCFirst; d <= BatchSameClassC; d++ {
		for _, pC := range []float64{0.1, 0.5, 0.9} {
			t.Run(fmt.Sprintf("%v/pC=%.1f", d, pC), func(t *testing.T) {
				rng := xrand.New(17, uint64(d)*10+uint64(pC*10))
				p := newWorldPair(t, d, servers, 0)
				p.w.seq[1] = math.MaxUint32 - 40
				slot := 0
				// phase runs n slots: each pushes ~arrivals tasks of type-C
				// probability pc to random servers, then serves every server
				// with probability pServe.
				phase := func(n int, arrivals int, pc, pServe float64) {
					for i := 0; i < n; i++ {
						for a := 0; a < arrivals; a++ {
							task := workload.Task{Type: workload.TypeE, Class: rng.IntN(classes)}
							if rng.Bool(pc) {
								task.Type = workload.TypeC
							}
							p.push(rng.IntN(servers), task, slot)
						}
						for id := 0; id < servers; id++ {
							if rng.Bool(pServe) {
								p.serve(id)
							}
						}
						slot++
					}
				}
				for round := 0; round < 3; round++ {
					phase(120, 6, pC, 0.5) // mixed fill: arrivals outrun service
					phase(400, 0, pC, 0.9) // drain through single-type to empty
					phase(40, 4, 1, 0.3)   // all-C fill
					phase(40, 4, 0, 0.3)   // all-E behind it
					phase(200, 3, pC, 1)   // churn near balance
				}
				p.drain()
				if p.served == 0 {
					t.Fatal("script served nothing")
				}
			})
		}
	}
}

// FuzzWorldVsScanOracle feeds byte scripts to both worlds. Byte 0 picks the
// discipline (low bits, mod 5) and, with its top bit, starts every push
// counter just below the uint32 wrap. Each later byte is one operation on a
// 4-server world:
//
//	bits 0-1  0 = end of slot (serve every server once, slot++)
//	          1 = serve one server, 2 = push a type-E, 3 = push a type-C
//	bits 2-3  server
//	bits 4-5  class
//
// so several pushes of both types can land on one server within a slot —
// the case where arrival slot alone cannot order the two fronts and
// FIFOBatch needs the push sequence.
func FuzzWorldVsScanOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{byte(FIFOBatch), 0x03, 0x02, 0x03, 0x02, 0x01, 0x01, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		var seqStart uint32
		if script[0]&0x80 != 0 {
			seqStart = math.MaxUint32 - 2
		}
		p := newWorldPair(t, Discipline(script[0]&0x7f)%(BatchSameClassC+1), 4, seqStart)
		slot := 0
		for _, op := range script[1:] {
			id, class := int(op>>2&3), int(op>>4&3)
			switch op & 3 {
			case 0:
				for s := 0; s < 4; s++ {
					p.serve(s)
				}
				slot++
			case 1:
				p.serve(id)
			case 2:
				p.push(id, workload.Task{Type: workload.TypeE, Class: class}, slot)
			case 3:
				p.push(id, workload.Task{Type: workload.TypeC, Class: class}, slot)
			}
		}
		p.drain()
	})
}
