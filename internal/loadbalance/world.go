package loadbalance

import "repro/internal/workload"

// rec is one queued task packed to 12 bytes: the low bit of meta is the task
// type (1 = type-C), the remaining 31 bits the class; arrival is the slot the
// task entered the queue; seq is its server's push counter at that moment,
// which orders two tasks of different types pushed to one server in the same
// slot. Half the size of the boxed form, so a server's queue at typical
// loads still sits in one or two cache lines.
type rec struct {
	meta    int32
	arrival int32
	seq     uint32
}

const recTypeC = int32(1)

// packTask encodes a task's type and class into a rec meta word.
func packTask(t workload.Task) int32 {
	m := int32(t.Class) << 1
	if t.Type == workload.TypeC {
		m |= recTypeC
	}
	return m
}

// fifo is one arrival-ordered queue of recs in a power-of-two ring: the i-th
// oldest of the n live recs sits at buf[(head+i)&mask], mask = len(buf)-1, so
// a queue in steady state never reallocates. The zero value is empty.
type fifo struct {
	buf  []rec
	head uint32
	n    uint32
}

// minFIFO is a queue's first allocation.
const minFIFO = 4

// at returns the i-th oldest rec.
func (f *fifo) at(i int) rec { return f.buf[(int(f.head)+i)&(len(f.buf)-1)] }

// push appends r, doubling a full ring and unrolling it so the oldest rec
// lands at 0.
func (f *fifo) push(r rec) {
	if int(f.n) == len(f.buf) {
		buf := make([]rec, max(minFIFO, 2*len(f.buf)))
		k := copy(buf, f.buf[f.head:])
		copy(buf[k:], f.buf[:f.head])
		f.buf, f.head = buf, 0
	}
	f.buf[(int(f.head)+int(f.n))&(len(f.buf)-1)] = r
	f.n++
}

// pop removes and returns the oldest rec: every removal but
// BatchSameClassC's class partner.
func (f *fifo) pop() rec {
	r := f.buf[f.head]
	f.head = (f.head + 1) & uint32(len(f.buf)-1)
	f.n--
	return r
}

// removeAt removes and returns the i-th oldest rec, preserving the order of
// the rest: the i older ones shift one place toward the tail.
func (f *fifo) removeAt(i int) rec {
	mask, h := len(f.buf)-1, int(f.head)
	r := f.buf[(h+i)&mask]
	for ; i > 0; i-- {
		f.buf[(h+i)&mask] = f.buf[(h+i-1)&mask]
	}
	f.head = uint32((h + 1) & mask)
	f.n--
	return r
}

// World is the structure-of-arrays simulation state for M servers: the
// per-server scalars live in flat columns indexed by server ID, and each
// server keeps two FIFOs of packed recs, one per task type, so every
// discipline finds the task it wants at a queue front instead of scanning a
// mixed queue for it. The serve step at N=10⁵ walks qlen as one contiguous
// int32 array and touches a server's 64-byte FIFO pair only when its queue
// is non-empty, and the cluster view aliases the qlen column so the per-slot
// "refresh" costs nothing.
type World struct {
	qlen []int32   // queue length per server
	numC []int32   // queued type-C tasks per server
	seq  []uint32  // pushes so far per server (wraps; see older)
	q    [][2]fifo // per server: [0] the type-E FIFO, [recTypeC] the type-C FIFO
}

// NewWorld returns a World with m empty server queues.
func NewWorld(m int) *World {
	return &World{
		qlen: make([]int32, m),
		numC: make([]int32, m),
		seq:  make([]uint32, m),
		q:    make([][2]fifo, m),
	}
}

// QueueLen returns server id's queue length (it also implements View, so a
// single-world run can expose live lengths without copying).
func (w *World) QueueLen(id int) int { return int(w.qlen[id]) }

// push appends a task to the tail of server id's queue of r's type, stamping
// it with the server's push sequence.
func (w *World) push(id int, r rec) {
	r.seq = w.seq[id]
	w.seq[id]++
	w.q[id][r.meta&recTypeC].push(r)
	w.qlen[id]++
	w.numC[id] += r.meta & recTypeC
}

// older reports whether push sequence a precedes b on one server. The
// counter wraps, but a server's live tasks span fewer than 2³¹ pushes (qlen
// is an int32), so the sign of the wrapped difference decides.
func older(a, b uint32) bool { return int32(a-b) < 0 }

// serve applies one slot of the discipline to server id, removing the served
// tasks from the queue and returning them: n of them (0 on an empty queue,
// else 1 or 2), first and then second. Every discipline serves the front of
// one of the two FIFOs and, when that task is type-C and the discipline
// batches, one more type-C with it.
func (w *World) serve(id int, d Discipline) (first, second rec, n int) {
	if w.qlen[id] == 0 {
		return first, second, 0
	}
	nC := w.numC[id]
	nE := w.qlen[id] - nC
	q := &w.q[id]
	var lead int32 // the type whose front is served first
	switch d {
	case BatchCFirst, SingleCFirst, BatchSameClassC:
		if nC > 0 {
			lead = recTypeC
		}
	case EFirst:
		if nE == 0 {
			lead = recTypeC
		}
	case FIFOBatch:
		// Strict arrival order: the older of the two fronts.
		if nE == 0 || (nC > 0 && older(q[recTypeC].at(0).seq, q[0].at(0).seq)) {
			lead = recTypeC
		}
	default:
		// Config.Validate rejects these before a run starts.
		panic("loadbalance: unknown discipline")
	}
	first, n = q[lead].pop(), 1
	if c := &q[recTypeC]; lead == recTypeC && nC > 1 && d != SingleCFirst {
		if d != BatchSameClassC {
			second, n = c.pop(), 2
		} else {
			// Only a type-C task of the first one's class may ride along,
			// and only the type-C FIFO can hold it.
			for i := 0; i < int(c.n); i++ {
				if c.at(i).meta == first.meta {
					second, n = c.removeAt(i), 2
					break
				}
			}
		}
	}
	// Everything served is of the lead type.
	w.qlen[id] -= int32(n)
	w.numC[id] -= int32(n) * lead
	return first, second, n
}

// totalQueued sums the live queue lengths.
func (w *World) totalQueued() int64 {
	var total int64
	for _, l := range w.qlen {
		total += int64(l)
	}
	return total
}
