package loadbalance

import "repro/internal/workload"

// scanWorld is the single-buffer World the per-type FIFOs replaced, kept
// verbatim as their differential oracle: one arrival-ordered buffer per
// server, in which a discipline finds the task it wants by scanning from the
// front (firstOfType, firstOfClass) and takes it out by shifting the prefix
// right (removeAt). It is O(queue) per serve where World is O(1), and it is
// the definition of what every discipline serves, in which order — the
// World's push sequence exists to reproduce this buffer's order under
// FIFOBatch. It ignores rec.seq.
type scanWorld struct {
	qlen []int32 // queue length per server
	numC []int32 // queued type-C tasks per server
	head []int32 // index of the queue front within bufs[id]
	bufs [][]rec // queue storage; live region is bufs[id][head[id]:]
}

// newScanWorld returns a scanWorld with m empty server queues.
func newScanWorld(m int) *scanWorld {
	return &scanWorld{
		qlen: make([]int32, m),
		numC: make([]int32, m),
		head: make([]int32, m),
		bufs: make([][]rec, m),
	}
}

// push appends a task to server id's queue tail. When the consumed prefix
// would force the backing array to grow, it is reclaimed first, so a queue
// in steady state never reallocates.
func (w *scanWorld) push(id int, r rec) {
	buf := w.bufs[id]
	if w.head[id] > 0 && len(buf) == cap(buf) {
		n := copy(buf, buf[w.head[id]:])
		buf = buf[:n]
		w.head[id] = 0
	}
	w.bufs[id] = append(buf, r)
	w.qlen[id]++
	if r.meta&recTypeC != 0 {
		w.numC[id]++
	}
}

// numOfType returns how many of server id's queued tasks have type t.
func (w *scanWorld) numOfType(id int, t workload.TaskType) int {
	if t == workload.TypeC {
		return int(w.numC[id])
	}
	return int(w.qlen[id] - w.numC[id])
}

// firstOfType returns the buf index of the oldest queued task of type t on
// server id, or -1. The count fast paths skip the scan when the queue holds
// none of (or nothing but) that type — the two overwhelmingly common cases
// under the Bernoulli workloads.
func (w *scanWorld) firstOfType(id int, t workload.TaskType) int {
	n := w.numOfType(id, t)
	if n == 0 {
		return -1
	}
	if n == int(w.qlen[id]) {
		return int(w.head[id])
	}
	var want int32
	if t == workload.TypeC {
		want = recTypeC
	}
	buf := w.bufs[id]
	for i := int(w.head[id]); i < len(buf); i++ {
		if buf[i].meta&recTypeC == want {
			return i
		}
	}
	return -1
}

// firstOfClass returns the buf index of the oldest queued task of type t and
// the given class on server id, or -1.
func (w *scanWorld) firstOfClass(id int, t workload.TaskType, class int) int {
	if w.numOfType(id, t) == 0 {
		return -1
	}
	want := int32(class) << 1
	if t == workload.TypeC {
		want |= recTypeC
	}
	buf := w.bufs[id]
	for i := int(w.head[id]); i < len(buf); i++ {
		if buf[i].meta == want {
			return i
		}
	}
	return -1
}

// removeAt removes and returns the task at buf index i of server id,
// preserving the relative order of the rest: the prefix buf[head:i] shifts
// right by one. For i == head (the usual case) this is a pure pointer bump.
func (w *scanWorld) removeAt(id, i int) rec {
	buf := w.bufs[id]
	h := int(w.head[id])
	r := buf[i]
	copy(buf[h+1:i+1], buf[h:i])
	h++
	w.head[id] = int32(h)
	w.qlen[id]--
	if r.meta&recTypeC != 0 {
		w.numC[id]--
	}
	if h == len(buf) {
		w.bufs[id] = buf[:0]
		w.head[id] = 0
	}
	return r
}

// serve applies one slot of the discipline to server id, removing the served
// tasks from the queue and appending them to out (the caller's reused
// scratch buffer, at most two entries per slot).
func (w *scanWorld) serve(id int, d Discipline, out []rec) []rec {
	if w.qlen[id] == 0 {
		return out
	}
	switch d {
	case BatchCFirst:
		if idx := w.firstOfType(id, workload.TypeC); idx >= 0 {
			out = append(out, w.removeAt(id, idx))
			if idx2 := w.firstOfType(id, workload.TypeC); idx2 >= 0 {
				out = append(out, w.removeAt(id, idx2))
			}
			return out
		}
		return append(out, w.removeAt(id, int(w.head[id])))
	case SingleCFirst:
		if idx := w.firstOfType(id, workload.TypeC); idx >= 0 {
			return append(out, w.removeAt(id, idx))
		}
		return append(out, w.removeAt(id, int(w.head[id])))
	case FIFOBatch:
		head := w.removeAt(id, int(w.head[id]))
		out = append(out, head)
		if head.meta&recTypeC != 0 {
			if idx := w.firstOfType(id, workload.TypeC); idx >= 0 {
				out = append(out, w.removeAt(id, idx))
			}
		}
		return out
	case EFirst:
		if idx := w.firstOfType(id, workload.TypeE); idx >= 0 {
			return append(out, w.removeAt(id, idx))
		}
		out = append(out, w.removeAt(id, int(w.head[id])))
		if idx := w.firstOfType(id, workload.TypeC); idx >= 0 {
			out = append(out, w.removeAt(id, idx))
		}
		return out
	case BatchSameClassC:
		if idx := w.firstOfType(id, workload.TypeC); idx >= 0 {
			first := w.removeAt(id, idx)
			out = append(out, first)
			if idx2 := w.firstOfClass(id, workload.TypeC, int(first.meta>>1)); idx2 >= 0 {
				out = append(out, w.removeAt(id, idx2))
			}
			return out
		}
		return append(out, w.removeAt(id, int(w.head[id])))
	default:
		panic("loadbalance: unknown discipline")
	}
}
