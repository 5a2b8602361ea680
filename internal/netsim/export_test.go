package netsim

import (
	"container/heap"
	"time"
)

// The binary-heap scheduler the calendar queue replaced, kept as its
// differential oracle: both order events by (at, seq), so an engine on
// either must produce the same pop sequence.

// NewHeapEngine returns an engine on the binary-heap scheduler.
func NewHeapEngine() *Engine { return &Engine{sched: new(eventHeap)} }

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

func (h *eventHeap) push(e event) { heap.Push(h, e) }
func (h *eventHeap) pop() (event, bool) {
	if len(*h) == 0 {
		return event{}, false
	}
	return heap.Pop(h).(event), true
}
func (h *eventHeap) peek() (time.Duration, uint64, bool) {
	if len(*h) == 0 {
		return 0, 0, false
	}
	return (*h)[0].at, (*h)[0].seq, true
}
func (h *eventHeap) len() int { return len(*h) }
