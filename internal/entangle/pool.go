package entangle

import (
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Supplier is what a coordination session consumes: one entangled pair per
// decision round. Implementations report the pair's visibility at use time,
// or ok=false when no pair is available (the session must then fall back to
// a classical strategy — correlations degrade, correctness does not).
type Supplier interface {
	// TryConsume removes one pair and returns its current visibility.
	TryConsume(now time.Duration) (visibility float64, ok bool)
}

// PoolStats counts the lifecycle of pairs through a pool.
type PoolStats struct {
	Added    int64 // pairs stored
	Consumed int64 // pairs used for decisions
	Expired  int64 // pairs discarded at the storage limit
	Flushed  int64 // pairs dropped by a corruption/flush event
}

// Pool lifecycle counters, aggregated process-wide in the default metrics
// registry (one uncontended atomic add per pair event; instrumentation
// never touches an RNG stream, so enabling -metrics cannot change results).
var (
	mPoolAdded    = metrics.Default().Counter("entangle_pool_added_total")
	mPoolConsumed = metrics.Default().Counter("entangle_pool_consumed_total")
	mPoolExpired  = metrics.Default().Counter("entangle_pool_expired_total")
	mPoolFlushed  = metrics.Default().Counter("entangle_pool_flushed_total")
)

// Pool is a buffer of stored pairs at a pair of QNICs. Consumption is
// freshest-first (LIFO): the newest pair has decohered the least, so it
// yields the highest visibility, while older pairs age out at the storage
// limit regardless — under oversupply freshest-first strictly dominates
// oldest-first on delivered visibility and loses only pairs that were going
// to expire anyway.
type Pool struct {
	QNIC QNICConfig
	Cap  int // maximum stored pairs (memory slots); 0 means unlimited

	// Stored pairs, oldest first. Arrival order is age order, so expiry
	// drops a prefix — O(expired), no copying, and the backing array never
	// shrinks or drifts — and freshest-first consumption pops the tail.
	pairs ring[Pair]
	stats PoolStats

	// Decoherence-spike state (SetT2Scale): while a spike is active, stored
	// pairs decay at the extra rate on top of the nominal 1/T2. Decay
	// accumulated under a previous scale is folded into each pair's V0 when
	// the scale changes, so visibility is exactly piecewise-exponential.
	extraRate  float64 // extra decay rate in 1/ns (0 when no spike is active)
	extraSince time.Duration
}

// NewPool creates a pool with the given QNIC model and capacity.
func NewPool(q QNICConfig, capacity int) *Pool {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return &Pool{QNIC: q, Cap: capacity}
}

// Add stores a newly arrived pair; returns false if the pool is full (the
// photons are measured out / discarded). Expiry runs first, so a slot freed
// by a pair aging out in the same tick is immediately reusable.
func (p *Pool) Add(pair Pair) bool {
	stored, expired := p.add(pair)
	if expired > 0 {
		mPoolExpired.Add(int64(expired))
	}
	if stored {
		mPoolAdded.Inc()
	}
	return stored
}

// add is Add without the process-wide counters: it reports how many pairs
// expired on the way in, so the source service can publish a whole
// catch-up's worth in one atomic add per counter.
func (p *Pool) add(pair Pair) (stored bool, expired int) {
	expired = p.expire(pair.ArrivedAt)
	if p.Cap > 0 && p.pairs.n >= p.Cap {
		return false, expired
	}
	p.pairs.push(pair)
	p.stats.Added++
	return true, expired
}

// addArrived is add for the k oldest pairs in flight, landing in order with
// nothing reading the pool in between (the source's bulk catch-up, which
// has checked that no add can meet a full pool). Each add expires as of its
// own arrival, so after the last one, at time last, exactly the pairs — old
// or new — that arrived before last − StorageLimit are gone: those are
// counted, as added and expired, and never stored. The cutoff is the last
// arrival's time and not the catch-up's bound because expiry is lazy: a
// Flush or Len after the catch-up sees the stale pairs the last add left.
func (p *Pool) addArrived(fl *ring[flight], k int, v0 float64) (expired int) {
	last := fl.at(k - 1).at
	expired = p.expire(last)
	stale := sort.Search(k, func(i int) bool { return !Pair{ArrivedAt: fl.at(i).at}.Expired(last, p.QNIC) })
	for i := stale; i < k; i++ {
		p.pairs.push(Pair{ArrivedAt: fl.at(i).at, V0: v0})
	}
	p.stats.Added += int64(k)
	p.stats.Expired += int64(stale)
	return expired + stale
}

// Len returns the number of stored (possibly stale) pairs; call Expire first
// for an exact live count.
func (p *Pool) Len() int { return p.pairs.n }

// Expire drops pairs past the storage limit as of now.
func (p *Pool) Expire(now time.Duration) {
	if expired := p.expire(now); expired > 0 {
		mPoolExpired.Add(int64(expired))
	}
}

// expire drops the expired prefix and returns its length; the caller
// publishes it to the process-wide counter.
func (p *Pool) expire(now time.Duration) int {
	i := 0
	for i < p.pairs.n && p.pairs.at(i).Expired(now, p.QNIC) {
		i++
	}
	p.pairs.drop(i)
	p.stats.Expired += int64(i)
	return i
}

// TryConsume implements Supplier: pops the freshest live pair.
func (p *Pool) TryConsume(now time.Duration) (float64, bool) {
	p.Expire(now)
	if p.pairs.n == 0 {
		return 0, false
	}
	p.pairs.n--
	pair := *p.pairs.at(p.pairs.n)
	p.stats.Consumed++
	mPoolConsumed.Inc()
	v := pair.VisibilityAt(now, p.QNIC)
	if p.extraRate != 0 {
		from := p.extraSince
		if pair.ArrivedAt > from {
			from = pair.ArrivedAt
		}
		if now > from {
			v *= math.Exp(-float64(now-from) * p.extraRate)
		}
	}
	return v, true
}

// SetT2Scale sets the pool's effective coherence time to scale·CoherenceT2
// from now on — the QNIC decoherence-spike fault (scale < 1 means faster
// decay; 1 restores nominal). Decay already accumulated under the previous
// scale is folded into the stored pairs' V0, so each pair's visibility is
// the exact piecewise-exponential of the decay rates it lived through.
// Expiry (StorageLimit) is unaffected: the QNIC discards on a wall clock,
// not on fidelity.
func (p *Pool) SetT2Scale(now time.Duration, scale float64) {
	if scale <= 0 {
		panic("entangle: T2 scale must be positive")
	}
	p.absorbExtraDecay(now)
	t2 := float64(p.QNIC.CoherenceT2)
	p.extraRate = 1/(t2*scale) - 1/t2
	p.extraSince = now
}

// absorbExtraDecay folds the extra (spike) decay accumulated since the last
// scale change into each stored pair's V0.
func (p *Pool) absorbExtraDecay(now time.Duration) {
	if p.extraRate == 0 {
		return
	}
	for i := 0; i < p.pairs.n; i++ {
		pair := p.pairs.at(i)
		from := p.extraSince
		if pair.ArrivedAt > from {
			from = pair.ArrivedAt
		}
		if now > from {
			pair.V0 *= math.Exp(-float64(now-from) * p.extraRate)
		}
	}
}

// Flush drops every stored pair — the pool-corruption fault (e.g. a QNIC
// reset losing its quantum memory). Returns the number of pairs lost.
func (p *Pool) Flush() int {
	n := p.pairs.n
	if n > 0 {
		p.pairs.drop(n)
		p.stats.Flushed += int64(n)
		mPoolFlushed.Add(int64(n))
	}
	return n
}

// Stats returns lifecycle counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// PerfectSupplier always supplies a pair at fixed visibility — the
// "entanglement is never the bottleneck" idealization used by the
// load-balancing experiments, where the interesting dynamics are queueing.
type PerfectSupplier struct{ Visibility float64 }

// TryConsume always succeeds.
func (s PerfectSupplier) TryConsume(time.Duration) (float64, bool) {
	return s.Visibility, true
}

// EmptySupplier never has a pair — the all-classical-fallback extreme.
type EmptySupplier struct{}

// TryConsume always fails.
func (EmptySupplier) TryConsume(time.Duration) (float64, bool) { return 0, false }
