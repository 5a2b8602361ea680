package metrics

// Reset zeroes every instrument in place (existing instrument pointers stay
// valid). Nothing outside this package's tests calls it — they use it to
// race zeroing against updates and snapshots — so it lives beside them.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, t := range r.timers {
		t.count.Store(0)
		t.total.Store(0)
		t.max.Store(0)
	}
}
