package stats

import "math"

// BatchMeans estimates the mean of an autocorrelated stationary series with
// an honest confidence interval. Queue-length samples from a simulation are
// strongly correlated slot to slot, so the naive i.i.d. standard error
// underestimates uncertainty badly near saturation; the method of batch
// means groups consecutive samples into batches long enough to decorrelate
// and treats batch averages as (approximately) independent.
//
// The zero value is not usable; create with NewBatchMeans.
type BatchMeans struct {
	batchSize int
	current   Welford // accumulates the in-progress batch
	batches   Welford // accumulates completed batch means
}

// NewBatchMeans creates an estimator with the given batch size. The size
// should exceed the series' correlation time; for the queueing experiments
// a few hundred slots is ample (verified empirically in tests).
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add folds one sample into the current batch.
func (b *BatchMeans) Add(x float64) {
	b.current.Add(x)
	if b.current.Count() == int64(b.batchSize) {
		b.batches.Add(b.current.Mean())
		b.current = Welford{}
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.Count() }

// Mean returns the grand mean over completed batches (plus nothing from the
// partial batch, keeping the estimator unbiased across equal-length
// batches). With no completed batch it falls back to the partial data.
func (b *BatchMeans) Mean() float64 {
	if b.batches.Count() == 0 {
		return b.current.Mean()
	}
	return b.batches.Mean()
}

// CI95 returns the half-width of the 95% confidence interval on the mean,
// using the batch-means variance. Returns +Inf with fewer than two
// completed batches (no variance information — the honest answer).
func (b *BatchMeans) CI95() float64 {
	if b.batches.Count() < 2 {
		return math.Inf(1)
	}
	return b.batches.CI95()
}

// Merge combines another estimator's completed batches into b (parallel
// batch-means merge, used by the sharded simulation runner). Both estimators
// must use the same batch size. An in-progress partial batch in o is
// DROPPED: its samples never formed a batch, and gluing two shards' partial
// batches together would manufacture a batch mean spanning a shard boundary
// that no serial run would produce. Callers that cannot afford the loss
// (at most batchSize−1 samples per merged estimator) should feed each shard
// a sample count that is a multiple of the batch size.
func (b *BatchMeans) Merge(o *BatchMeans) {
	if b.batchSize != o.batchSize {
		panic("stats: merging batch-means estimators with different batch sizes")
	}
	b.batches.Merge(&o.batches)
}
