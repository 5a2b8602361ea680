package stats

// Rolling is a fixed-window moving average: it retains the last Window
// samples in a ring buffer and reports their mean in O(1) per update. The
// health monitors of core use it to track delivered visibility and supply
// rate without unbounded memory.
type Rolling struct {
	buf  []float64
	next int
	n    int
	sum  float64
}

// NewRolling returns a rolling window over the last `window` samples.
func NewRolling(window int) *Rolling {
	if window <= 0 {
		panic("stats: rolling window must be positive")
	}
	return &Rolling{buf: make([]float64, window)}
}

// Add folds in one sample, evicting the oldest once the window is full.
func (r *Rolling) Add(x float64) {
	if r.n == len(r.buf) {
		r.sum -= r.buf[r.next]
	} else {
		r.n++
	}
	r.buf[r.next] = x
	r.sum += x
	r.next = (r.next + 1) % len(r.buf)
}

// Count returns the number of retained samples (≤ Window).
func (r *Rolling) Count() int { return r.n }

// Window returns the configured window length.
func (r *Rolling) Window() int { return len(r.buf) }

// Mean returns the mean of the retained samples (0 when empty).
func (r *Rolling) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}
