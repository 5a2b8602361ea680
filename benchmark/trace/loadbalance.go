package main

// Layer: loadbalance — the queueing simulation behind E3, E6, E9, E10 and
// E19, about a third of repro's serial time.

import (
	"runtime"
	"time"

	"repro/internal/loadbalance"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// probeLoadbalance times the knee-region simulation (load ≈ 1.1, quantum
// paired strategy) once cell-sharded over nproc workers and once as a single
// run.
func probeLoadbalance(m values) error {
	sharded := loadbalance.ShardedConfig{
		Cells:         8,
		CellBalancers: 100,
		CellServers:   91,
		Warmup:        100,
		Slots:         400,
		Discipline:    loadbalance.BatchCFirst,
		Workload:      workload.Bernoulli{PC: 0.5},
		Seed:          42,
		Shards:        runtime.NumCPU(),
	}
	qbase := xrand.New(42, 0x9).Uint64()
	start := time.Now()
	res, err := loadbalance.RunSharded(sharded, func(cell int) loadbalance.Strategy {
		return loadbalance.NewQuantumPairedStrategy(1.0, xrand.Derive(qbase, uint64(cell)))
	})
	if err != nil {
		return err
	}
	m["loadbalance.tasks_per_s.sharded"] = float64(res.Arrived) / time.Since(start).Seconds()

	single := loadbalance.Config{
		NumBalancers: 100,
		NumServers:   91,
		Warmup:       100,
		Slots:        1000,
		Discipline:   loadbalance.BatchCFirst,
		Workload:     workload.Bernoulli{PC: 0.5},
		Seed:         42,
	}
	start = time.Now()
	one, err := loadbalance.RunE(single, loadbalance.NewQuantumPairedStrategy(1.0, xrand.New(42, 0xa)))
	if err != nil {
		return err
	}
	m["loadbalance.ns_per_task.run"] = float64(time.Since(start).Nanoseconds()) / float64(one.Arrived)
	return nil
}
