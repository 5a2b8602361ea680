package core

// Force pins the monitor to a level, disabling automatic transitions
// (operator override, or DegradeRandom for a dead monitor). Force(-1)
// releases the pin.
func (h *HealthMonitor) Force(l DegradeLevel) {
	h.stale = true
	if l < 0 {
		h.forced = false
		h.evaluate()
		return
	}
	h.forced = true
	h.setLevel(l)
	h.Publish()
}
