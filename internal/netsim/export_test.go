package netsim

// Pending returns the number of queued callbacks. Events a Stream holds are
// not counted: only the stream knows them.
func (e *Engine) Pending() int { return len(e.queue) }
