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

// task unpacks the workload task.
func (r rec) task() workload.Task {
	typ := workload.TypeE
	if r.meta&recTypeC != 0 {
		typ = workload.TypeC
	}
	return workload.Task{Type: typ, Class: int(r.meta >> 1)}
}

// fifo is one arrival-ordered queue of recs: the live region is buf[head:].
type fifo struct {
	buf  []rec
	head int32
}

// push appends r. When the consumed prefix would force the backing array to
// grow, it is reclaimed first, so a queue in steady state never reallocates.
func (f *fifo) push(r rec) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, r)
}

// front returns the oldest rec of a non-empty fifo.
func (f *fifo) front() rec { return f.buf[f.head] }

// removeAt removes and returns the rec at buf index i, preserving the order
// of the rest: the prefix buf[head:i] shifts right by one. For i == head —
// every removal but BatchSameClassC's class partner — that is a pointer bump.
func (f *fifo) removeAt(i int) rec {
	h := int(f.head)
	r := f.buf[i]
	copy(f.buf[h+1:i+1], f.buf[h:i])
	if h++; h == len(f.buf) {
		f.buf, h = f.buf[:0], 0
	}
	f.head = int32(h)
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

// NumServers returns the number of server queues.
func (w *World) NumServers() int { return len(w.qlen) }

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

// numOfType returns how many of server id's queued tasks have type t.
func (w *World) numOfType(id int, t workload.TaskType) int {
	if t == workload.TypeC {
		return int(w.numC[id])
	}
	return int(w.qlen[id] - w.numC[id])
}

// take removes the rec at buf index i of f, one of server id's two FIFOs.
func (w *World) take(id int, f *fifo, i int) rec {
	r := f.removeAt(i)
	w.qlen[id]--
	w.numC[id] -= r.meta & recTypeC
	return r
}

// older reports whether push sequence a precedes b on one server. The
// counter wraps, but a server's live tasks span fewer than 2³¹ pushes (qlen
// is an int32), so the sign of the wrapped difference decides.
func older(a, b uint32) bool { return int32(a-b) < 0 }

// serve applies one slot of the discipline to server id, removing the served
// tasks from the queue and appending them to out (the caller's reused
// scratch buffer, at most two entries per slot). Every discipline serves the
// front of one of the two FIFOs and, when that task is type-C and the
// discipline batches, one more type-C with it.
func (w *World) serve(id int, d Discipline, out []rec) []rec {
	if w.qlen[id] == 0 {
		return out
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
		if nE == 0 || (nC > 0 && older(q[recTypeC].front().seq, q[0].front().seq)) {
			lead = recTypeC
		}
	default:
		// Config.Validate rejects these before a run starts.
		panic("loadbalance: unknown discipline")
	}
	first := w.take(id, &q[lead], int(q[lead].head))
	out = append(out, first)
	if lead != recTypeC || nC == 1 || d == SingleCFirst {
		return out
	}
	c := &q[recTypeC]
	if d != BatchSameClassC {
		return append(out, w.take(id, c, int(c.head)))
	}
	// Only a type-C task of the first one's class may ride along, and only
	// the type-C FIFO can hold it.
	for i := int(c.head); i < len(c.buf); i++ {
		if c.buf[i].meta == first.meta {
			return append(out, w.take(id, c, i))
		}
	}
	return out
}

// totalQueued sums the live queue lengths.
func (w *World) totalQueued() int64 {
	var total int64
	for _, l := range w.qlen {
		total += int64(l)
	}
	return total
}
