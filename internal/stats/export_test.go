package stats

// Full reports whether the window has filled.
func (r *Rolling) Full() bool { return r.n == len(r.buf) }

// Count returns the number of raw samples folded in.
func (b *BatchMeans) Count() int64 {
	return b.batches.Count()*int64(b.batchSize) + b.current.Count()
}

// Min returns the smallest recorded value (0 when empty).
func (h *HDRHistogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Reset zeroes the histogram in place, keeping the bucket array.
func (h *HDRHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.min, h.max = 0, 0, 0
}
