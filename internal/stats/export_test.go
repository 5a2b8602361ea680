package stats

// Full reports whether the window has filled.
func (r *Rolling) Full() bool { return r.n == len(r.buf) }
