package cachesim

import (
	"repro/internal/loadbalance"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// runPerSample is Run as it was before the per-tick folds, kept as their
// oracle: every sojourn and every server's backlog goes into its IntMoments
// one Add at a time, in a service pass and a separate sampling pass.
func runPerSample(cfg Config, strat loadbalance.Strategy) Result {
	rng := xrand.New(cfg.Seed, 0xcac4e)
	servers := make([]server, cfg.NumServers)
	for i := range servers {
		servers[i].cache = newLRU(cfg.CacheSlots)
	}
	view := &queueView{lens: make([]int, cfg.NumServers)}
	tasks := make([]workload.Task, cfg.NumDispatchers)
	assign := make([]int, cfg.NumDispatchers)
	res := Result{Strategy: strat.Name()}
	var sojourn, qlen stats.IntMoments
	for tick := 0; tick < cfg.Warmup+cfg.Ticks; tick++ {
		measured := tick >= cfg.Warmup
		for i := range tasks {
			tasks[i] = workload.Task{Type: workload.TypeC, Class: rng.Categorical(cfg.TextureWeights)}
		}
		for i, srv := range strat.Assign(assign, tasks, view, rng) {
			servers[srv].queue = append(servers[srv].queue, job{texture: tasks[i].Class, arrived: tick})
			if measured {
				res.Arrived++
			}
		}
		for s := range servers {
			sv := &servers[s]
			if !sv.busy && len(sv.queue) > 0 {
				sv.current, sv.queue, sv.busy = sv.queue[0], sv.queue[1:], true
				hit := sv.cache.Touch(sv.current.texture)
				sv.remaining = cfg.MissCost
				if hit {
					sv.remaining = cfg.HitCost
				}
				if measured {
					res.HitRate.Add(hit)
				}
			}
			if sv.busy {
				if sv.remaining--; sv.remaining == 0 {
					sv.busy = false
					if measured {
						res.Completed++
						sojourn.Add(int64(tick - sv.current.arrived + 1))
					}
				}
			}
		}
		for s := range servers {
			l := len(servers[s].queue)
			if servers[s].busy {
				l++
			}
			view.lens[s] = l
			if measured {
				qlen.Add(int64(l))
			}
		}
	}
	res.Sojourn, res.QueueLen = sojourn.Welford(), qlen.Welford()
	return res
}
