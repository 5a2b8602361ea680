package serve

import (
	"time"

	"repro/internal/metrics"
)

// accountDeadlineEach is the decide pipeline's accounting as it was before
// it became one pass and one publish per request: called once per delivered
// decision, it observes an in-deadline decision into the goodput timer and
// counts a late one. It stays here as the oracle (*Server).accountDeadline
// is pinned against.
func accountDeadlineEach(goodput *metrics.Timer, late *metrics.Counter, now, deadline time.Time, out *DecideResponse) {
	total := time.Duration(out.QueueNS + out.LatencyNS + out.WaitedNS)
	if !deadline.IsZero() && now.Add(total).After(deadline) {
		late.Inc()
		return
	}
	goodput.Observe(total)
}
