package loadbalance

// SlotSample is what a Recorder sees after each simulated slot: the slot's
// arrival/service totals, the post-service queue state, and the strategy's
// cumulative colocation tally (NaN when the strategy does not track one).
type SlotSample struct {
	Slot     int
	Measured bool // inside the measured window (slot >= Warmup)
	// QueueTotal and QueueMax summarize the per-server queue lengths after
	// this slot's service step — the same instant the measured QueueLen
	// statistic samples.
	QueueTotal int
	QueueMax   int
	// Arrived and Served are this slot's task counts; DelaySum is the
	// summed queueing delay (in slots) of the tasks served this slot.
	Arrived  int
	Served   int
	DelaySum float64
	// ColocationRate is the strategy's cumulative preference-satisfaction
	// rate as of this slot (measured window only, see EXPERIMENTS.md), or
	// NaN for strategies without a ColocationTracker.
	ColocationRate float64
}

// Recorder observes every simulated slot of RunE. A nil Config.Recorder
// skips all sample assembly — the hot path is untouched — and a non-nil
// one never perturbs results: recording reads simulation state after the
// slot completes and touches no RNG stream. Recorders are driven from
// whichever goroutine runs the simulation; a recorder must not be shared
// across concurrently running configs (sweeps run points in parallel).
type Recorder interface {
	RecordSlot(s SlotSample)
}

// SlotSeries is the standard Recorder: it retains one sample per simulated
// slot (queue totals, arrivals, services, delay, colocation) for the whole
// run; warmup slots are retained too, flagged via the Measured column,
// because watching the transient drain is half the point of a time series.
type SlotSeries struct {
	Slots          []float64
	Measured       []float64 // 1 inside the measured window, 0 during warmup
	QueueTotal     []float64
	QueueMax       []float64
	Arrived        []float64
	Served         []float64
	DelaySum       []float64
	ColocationRate []float64
}

// RecordSlot implements Recorder.
func (r *SlotSeries) RecordSlot(s SlotSample) {
	measured := 0.0
	if s.Measured {
		measured = 1
	}
	r.Slots = append(r.Slots, float64(s.Slot))
	r.Measured = append(r.Measured, measured)
	r.QueueTotal = append(r.QueueTotal, float64(s.QueueTotal))
	r.QueueMax = append(r.QueueMax, float64(s.QueueMax))
	r.Arrived = append(r.Arrived, float64(s.Arrived))
	r.Served = append(r.Served, float64(s.Served))
	r.DelaySum = append(r.DelaySum, s.DelaySum)
	r.ColocationRate = append(r.ColocationRate, s.ColocationRate)
}

// Len returns the number of recorded samples.
func (r *SlotSeries) Len() int { return len(r.Slots) }
