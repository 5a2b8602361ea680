package main

// Layers: stats and metrics — the bookkeeping on the hot path (two HDR
// records per decision in the harness, counters and timers in serve).

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func probeStats(m values, unit time.Duration) {
	const loop = 1 << 16
	h := stats.NewHDRHistogram()
	m["stats.hdr_record_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(int64(1000 + i&1023))
		}
	})
	reg := metrics.NewRegistry()
	c := reg.Counter("probe_total")
	m["metrics.counter_inc_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	t := reg.Timer("probe")
	m["metrics.timer_observe_ns"] = perOp(unit, loop, func(n int) {
		for i := 0; i < n; i++ {
			t.Observe(time.Duration(1000 + i&1023))
		}
	})
}
