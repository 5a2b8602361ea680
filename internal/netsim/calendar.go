package netsim

import (
	"math/bits"
	"time"
)

// calBucket is one calendar day. The first calInline events live in a fixed
// array right next to the count, so the common push/pop touches a single
// 128-byte bucket record (one or two cache lines) instead of chasing a slice
// header to a separately-allocated backing array — at 10⁵ pending events the
// bucket access pattern is effectively random, and that saved miss is most
// of the scheduler's cost. Days with more than calInline events (rare when
// the resize policy holds occupancy near calWidthSpread) spill into the
// overflow slice.
type calBucket struct {
	n   int32 // events in inl
	inl [calInline]event
	ovf []event
}

const calInline = 4

// calendarQueue is a calendar-queue (bucketed ladder) event scheduler
// (R. Brown, CACM 1988): pending events hash into time buckets of a fixed
// width, the dequeue cursor walks the buckets like days on a calendar, and
// a resize policy keeps the bucket count proportional to the number of
// pending events. With ~1 event per bucket both enqueue and dequeue are
// O(1) amortized, against the binary heap's O(log n) — at 10⁵–10⁶ pending
// events (one per simulated endpoint) that constant factor is the
// difference between minutes and hours for a full sweep.
//
// The bucket width is always a power-of-two number of nanoseconds and the
// bucket count a power of two, so the timestamp→bucket map is a shift and a
// mask — int64 division is ~30 cycles on current x86 and would otherwise
// dominate the push path.
//
// Ordering is EXACTLY the heap engine's: events are totally ordered by
// (at, seq), so simultaneous events pop in scheduling (FIFO) order. Two
// events with equal timestamps always land in the same bucket, and the
// bucket scan breaks ties on seq — the differential test in
// calendar_test.go replays identical streams through both schedulers and
// requires identical pop sequences.
type calendarQueue struct {
	buckets []calBucket
	shift   uint          // bucket width = 1<<shift nanoseconds
	mask    int           // len(buckets)-1 (bucket count is a power of two)
	cur     int           // bucket the dequeue cursor is standing on
	curEnd  time.Duration // exclusive end of cur's current-year window
	n       int           // pending events

	// Cached location of the minimum event, so a peek immediately followed
	// by pop (the RunUntil loop) scans the calendar once, not twice. A pop or
	// resize invalidates it; a push keeps it when the new event cannot beat
	// the cached minimum (pushes carry a fresh, larger seq, so at alone
	// decides — the common case, since callbacks schedule into the future).
	minBi, minSi int
	minAt        time.Duration
	minOK        bool
}

const (
	calMinBuckets = 16
	calMaxBuckets = 1 << 21
	// calWidthSpread multiplies the mean inter-event gap when a resize
	// re-estimates the bucket width: a bucket then holds a couple of events,
	// keeping scans short (and inside the inline array) without leaving most
	// buckets empty.
	calWidthSpread = 2
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([]calBucket, calMinBuckets),
		mask:    calMinBuckets - 1,
		shift:   20, // 2²⁰ns ≈ 1.05ms, rescaled by the first resize
	}
}

// width returns the bucket time width.
func (c *calendarQueue) width() time.Duration { return 1 << c.shift }

// bucketOf maps an absolute timestamp to its bucket index.
func (c *calendarQueue) bucketOf(at time.Duration) int {
	return int(at>>c.shift) & c.mask
}

// seek points the cursor at the bucket-year window containing at.
func (c *calendarQueue) seek(at time.Duration) {
	c.cur = c.bucketOf(at)
	c.curEnd = (at>>c.shift + 1) << c.shift
}

func (c *calendarQueue) len() int { return c.n }

func (c *calendarQueue) push(ev event) {
	if c.n == 0 || ev.at < c.curEnd-c.width() {
		// Keep the cursor invariant — the current window never starts after
		// the earliest pending event. An empty queue has no invariant yet,
		// and a push into a window the cursor has already passed (possible
		// after the empty-queue seek jumped ahead) must pull it back, or
		// findMin would skip the new event for a whole calendar year.
		c.seek(ev.at)
	}
	b := &c.buckets[c.bucketOf(ev.at)]
	if b.n < calInline {
		b.inl[b.n] = ev
		b.n++
	} else {
		if b.ovf == nil {
			// First spill allocates a full size class up front: letting append
			// ratchet 1→2→4→8 re-allocates every time a revolution sets a new
			// occupancy record for the bucket, a GC drip that decays too slowly
			// to ever leave the steady state.
			b.ovf = make([]event, 0, 8)
		}
		b.ovf = append(b.ovf, ev)
	}
	c.n++
	if ev.at < c.minAt {
		// Appends never move existing slots, so the cached location stays
		// valid unless the new event sorts first.
		c.minOK = false
	}
	if c.n > 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		c.resize(2 * len(c.buckets))
	}
}

// scanBucket returns the slot of b's least event strictly before limit, or
// -1. Slots index the inline array first, then the overflow.
func scanBucket(b *calBucket, limit time.Duration) int {
	best := -1
	var bestAt time.Duration
	var bestSeq uint64
	bn := int(b.n)
	for i := 0; i < bn; i++ {
		at, seq := b.inl[i].at, b.inl[i].seq
		if at >= limit {
			continue
		}
		if best < 0 || at < bestAt || (at == bestAt && seq < bestSeq) {
			best, bestAt, bestSeq = i, at, seq
		}
	}
	for i := range b.ovf {
		at, seq := b.ovf[i].at, b.ovf[i].seq
		if at >= limit {
			continue
		}
		if best < 0 || at < bestAt || (at == bestAt && seq < bestSeq) {
			best, bestAt, bestSeq = calInline+i, at, seq
		}
	}
	return best
}

// at returns the event in slot si (inline first, then overflow).
func (b *calBucket) at(si int) event {
	if si < calInline {
		return b.inl[si]
	}
	return b.ovf[si-calInline]
}

// remove deletes slot si by swap-remove; order within a bucket is irrelevant
// (the scan re-derives it). Only the fn pointer of a vacated slot is
// cleared — that is all the GC can see, and zeroing the full 24-byte event
// was a visible slice of the pop path.
func (b *calBucket) remove(si int) {
	if si >= calInline { // swap-remove within the overflow
		last := len(b.ovf) - 1
		b.ovf[si-calInline] = b.ovf[last]
		b.ovf[last].fn = nil
		b.ovf = b.ovf[:last]
		return
	}
	if last := len(b.ovf) - 1; last >= 0 {
		// Backfill the inline hole from the overflow so inline stays dense.
		b.inl[si] = b.ovf[last]
		b.ovf[last].fn = nil
		b.ovf = b.ovf[:last]
		return
	}
	b.n--
	b.inl[si] = b.inl[b.n]
	b.inl[b.n].fn = nil
}

// findMin locates the next event in (at, seq) order, advancing the cursor
// to its bucket window, and returns its (bucket, slot) position. It must
// only be called with n > 0.
func (c *calendarQueue) findMin() (int, int) {
	if c.minOK {
		return c.minBi, c.minSi
	}
	for hop := 0; hop <= len(c.buckets); hop++ {
		// Only this year's events count: a bucket also holds events one or
		// more whole calendar revolutions in the future, which the curEnd
		// limit excludes.
		if si := scanBucket(&c.buckets[c.cur], c.curEnd); si >= 0 {
			c.minBi, c.minSi, c.minOK = c.cur, si, true
			c.minAt = c.buckets[c.cur].at(si).at
			return c.cur, si
		}
		c.cur = (c.cur + 1) & c.mask
		c.curEnd += c.width()
	}
	// A full revolution found nothing: the pending events are more than a
	// calendar year ahead (sparse far-future schedule). Fall back to a
	// direct scan for the global minimum and jump the cursor to it.
	minBucket, minSlot := -1, -1
	var minEv event
	for bi := range c.buckets {
		si := scanBucket(&c.buckets[bi], 1<<62)
		if si < 0 {
			continue
		}
		if ev := c.buckets[bi].at(si); minBucket < 0 || ev.less(minEv) {
			minBucket, minSlot, minEv = bi, si, ev
		}
	}
	c.seek(minEv.at)
	c.minBi, c.minSi, c.minOK = minBucket, minSlot, true
	c.minAt = minEv.at
	return minBucket, minSlot
}

func (c *calendarQueue) pop() (event, bool) {
	if c.n == 0 {
		return event{}, false
	}
	bi, si := c.findMin()
	b := &c.buckets[bi]
	ev := b.at(si)
	b.remove(si)
	c.n--
	c.minOK = false
	if c.n < len(c.buckets)/4 && len(c.buckets) > calMinBuckets {
		c.resize(len(c.buckets) / 2)
	}
	return ev, true
}

func (c *calendarQueue) peek() (time.Duration, uint64, bool) {
	if c.n == 0 {
		return 0, 0, false
	}
	bi, si := c.findMin()
	ev := c.buckets[bi].at(si)
	return ev.at, ev.seq, true
}

// resize re-buckets every pending event into nb buckets, re-estimating the
// bucket width from the pending events' time span so that average bucket
// occupancy stays near calWidthSpread. Amortized against the pushes/pops
// that triggered it, this keeps both operations O(1).
func (c *calendarQueue) resize(nb int) {
	var minAt, maxAt time.Duration
	first := true
	each := func(fn func(event)) {
		for bi := range c.buckets {
			b := &c.buckets[bi]
			for i := 0; i < int(b.n); i++ {
				fn(b.inl[i])
			}
			for _, ev := range b.ovf {
				fn(ev)
			}
		}
	}
	each(func(ev event) {
		if first || ev.at < minAt {
			minAt = ev.at
		}
		if first || ev.at > maxAt {
			maxAt = ev.at
		}
		first = false
	})
	if c.n > 0 {
		if w := (maxAt - minAt) / time.Duration(c.n) * calWidthSpread; w > 0 {
			// Round the ideal width to the NEAREST power of two (boundary at
			// ×1.5): occupancy stays within ~1.5× of target either way, and
			// the bucket map stays shift-and-mask.
			s := uint(bits.Len64(uint64(w - 1)))
			if s > 0 && time.Duration(1)<<s > w+w/2 {
				s--
			}
			c.shift = s
		}
		// span == 0 (all events simultaneous) keeps the previous width: any
		// width is optimal when everything shares one bucket.
	}
	old := c.buckets
	c.buckets = make([]calBucket, nb)
	c.mask = nb - 1
	for bi := range old {
		b := &old[bi]
		for i := 0; i < int(b.n); i++ {
			c.reinsert(b.inl[i])
		}
		for _, ev := range b.ovf {
			c.reinsert(ev)
		}
	}
	c.minOK = false
	if c.n > 0 {
		c.seek(minAt)
	} else {
		c.seek(0)
	}
}

// reinsert places an event during resize without touching counts or policy.
func (c *calendarQueue) reinsert(ev event) {
	b := &c.buckets[c.bucketOf(ev.at)]
	if b.n < calInline {
		b.inl[b.n] = ev
		b.n++
	} else {
		if b.ovf == nil {
			b.ovf = make([]event, 0, 8)
		}
		b.ovf = append(b.ovf, ev)
	}
}
