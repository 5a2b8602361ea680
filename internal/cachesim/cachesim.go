// Package cachesim models the cache mechanism underneath the paper's
// colocation preference, which the paper's own simulation abstracts away
// ("our simulation is intentionally simple and does not model caches, GPUs,
// or network behavior in detail"). Servers carry an LRU texture cache;
// serving a task whose texture is resident costs HitCost ticks, a miss
// costs MissCost (and installs the texture). Routing same-texture tasks to
// the same server keeps caches warm — the reason type-C tasks want
// colocation in the first place.
//
// The package reuses the loadbalance.Strategy interface: a task's texture
// travels in workload.Task.Class, so the same classical and quantum
// strategies drive both simulators.
package cachesim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/loadbalance"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config parametrizes a cache-level simulation.
type Config struct {
	NumDispatchers, NumServers int
	// NumTextures is the number of distinct textures (task classes).
	NumTextures int
	// TextureWeights is the popularity distribution over textures (need
	// not be normalized). Length must equal NumTextures.
	TextureWeights []float64
	// CacheSlots is each server's LRU capacity, in textures.
	CacheSlots int
	// HitCost and MissCost are service times in ticks.
	HitCost, MissCost int
	// Warmup ticks are simulated unmeasured; Ticks are measured.
	Warmup, Ticks int
	Seed          uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumDispatchers <= 0 || c.NumServers <= 0:
		return fmt.Errorf("cachesim: need positive dispatcher and server counts")
	case c.NumTextures <= 0 || len(c.TextureWeights) != c.NumTextures:
		return fmt.Errorf("cachesim: texture weights must match texture count")
	case c.CacheSlots <= 0:
		return fmt.Errorf("cachesim: need positive cache capacity")
	case c.HitCost <= 0 || c.MissCost < c.HitCost:
		return fmt.Errorf("cachesim: need 0 < HitCost ≤ MissCost")
	case c.Ticks <= 0 || c.Warmup < 0:
		return fmt.Errorf("cachesim: need positive measured ticks")
	}
	return nil
}

// Result aggregates a run's measurements.
type Result struct {
	Strategy string
	// HitRate is the cache hit fraction over measured services.
	HitRate stats.Proportion
	// Sojourn is ticks from arrival to completion.
	Sojourn stats.Welford
	// QueueLen samples total per-server backlog each tick.
	QueueLen           stats.Welford
	Arrived, Completed int64
}

type job struct {
	texture int
	arrived int
}

type server struct {
	cache     *lruCache
	queue     []job
	remaining int // ticks left on the current job
	current   job
	busy      bool
}

// Run executes the simulation with the given assignment strategy.
func Run(cfg Config, strat loadbalance.Strategy) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := xrand.New(cfg.Seed, 0xcac4e)
	servers := make([]server, cfg.NumServers)
	for i := range servers {
		servers[i].cache = newLRU(cfg.CacheSlots)
	}
	view := &queueView{lens: make([]int, cfg.NumServers)}
	tasks := make([]workload.Task, cfg.NumDispatchers)
	assign := make([]int, cfg.NumDispatchers) // reused across ticks
	res := Result{Strategy: strat.Name()}
	var sojourn, qlen stats.IntMoments // exact; converted once at the end

	total := cfg.Warmup + cfg.Ticks
	for tick := 0; tick < total; tick++ {
		measured := tick >= cfg.Warmup

		// Arrivals: every dispatcher gets one task per tick.
		for i := range tasks {
			tex := rng.Categorical(cfg.TextureWeights)
			tasks[i] = workload.Task{Type: workload.TypeC, Class: tex}
		}
		for i, srv := range strat.Assign(assign, tasks, view, rng) {
			servers[srv].queue = append(servers[srv].queue, job{texture: tasks[i].Class, arrived: tick})
			if measured {
				res.Arrived++
			}
		}

		// Service, one tick of work per server, then the stale view's refresh
		// and the backlog sample, in one pass. Sojourns and backlogs
		// accumulate in locals (count, Σ, 128-bit Σ², min, max) that fold
		// into their moments once per tick.
		var sN, sSum, qSum int64
		var sSqHi, sSqLo, qSqHi, qSqLo, c uint64
		sMin, sMax := int64(math.MaxInt64), int64(math.MinInt64)
		qMin, qMax := int64(math.MaxInt64), int64(math.MinInt64)
		for s := range servers {
			sv := &servers[s]
			if !sv.busy && len(sv.queue) > 0 {
				sv.current = sv.queue[0]
				sv.queue = sv.queue[1:]
				sv.busy = true
				hit := sv.cache.Touch(sv.current.texture)
				if hit {
					sv.remaining = cfg.HitCost
				} else {
					sv.remaining = cfg.MissCost
				}
				if measured {
					res.HitRate.Add(hit)
				}
			}
			if sv.busy {
				sv.remaining--
				if sv.remaining == 0 {
					sv.busy = false
					x := int64(tick - sv.current.arrived + 1)
					sN, sSum = sN+1, sSum+x
					sSqLo, c = bits.Add64(sSqLo, uint64(x*x), 0)
					sSqHi += c
					sMin, sMax = min(sMin, x), max(sMax, x)
				}
			}
			l := len(sv.queue)
			if sv.busy {
				l++
			}
			view.lens[s] = l
			q := int64(l)
			qSum += q
			qSqLo, c = bits.Add64(qSqLo, uint64(q*q), 0)
			qSqHi += c
			qMin, qMax = min(qMin, q), max(qMax, q)
		}
		if measured {
			res.Completed += sN
			sojourn.Fold(sN, sSum, sSqHi, sSqLo, sMin, sMax)
			qlen.Fold(int64(len(servers)), qSum, qSqHi, qSqLo, qMin, qMax)
		}
	}
	res.Sojourn, res.QueueLen = sojourn.Welford(), qlen.Welford()
	return res
}

type queueView struct{ lens []int }

func (v *queueView) NumServers() int         { return len(v.lens) }
func (v *queueView) QueueLen(server int) int { return v.lens[server] }

// lruCache is a small exact LRU over texture ids.
type lruCache struct {
	cap   int
	order []int // most recent last
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity}
}

// Touch looks up the texture, promotes or installs it, and reports whether
// it was resident (hit).
func (c *lruCache) Touch(texture int) bool {
	for i, t := range c.order {
		if t == texture {
			c.order = append(append(c.order[:i], c.order[i+1:]...), texture)
			return true
		}
	}
	if len(c.order) >= c.cap {
		c.order = c.order[1:]
	}
	c.order = append(c.order, texture)
	return false
}

// Len returns the number of resident textures.
func (c *lruCache) Len() int { return len(c.order) }

// Contains reports residence without promoting.
func (c *lruCache) Contains(texture int) bool {
	for _, t := range c.order {
		if t == texture {
			return true
		}
	}
	return false
}
