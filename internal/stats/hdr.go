package stats

import "math/bits"

// HDRHistogram is a log-bucketed latency histogram in the HdrHistogram
// family: fixed relative error across the full int64 range, O(1) Record,
// and quantile queries that resolve the far tail (p999, p9999) that
// linear bins cannot. Values are non-negative integers — the serving stack
// records nanoseconds.
//
// Bucketing is log-linear: values below 2^subBits are recorded exactly;
// above that, each octave [2^e, 2^(e+1)) is split into 2^(subBits-1)
// equal-width sub-buckets, so any recorded value is reproduced by Quantile
// with relative error at most 2^-(subBits-1) (~3% at the default
// precision). Everything is integer arithmetic on a fixed bucket layout:
// identical Record sequences produce identical quantiles on every
// platform, which is what lets load-test reports be byte-identical at a
// fixed seed.
//
// The zero value is NOT ready; use NewHDRHistogram. The struct is not
// safe for concurrent use — concurrent recorders keep one per worker and
// Merge at the end.
type HDRHistogram struct {
	counts []int64
	count  int64
	min    int64
	max    int64
}

// hdrSubBits fixes the precision: 2^(hdrSubBits-1) sub-buckets per octave,
// i.e. at most 1/32 ≈ 3.1% relative quantile error.
const hdrSubBits = 6

// hdrBuckets is the total bucket count: exact buckets for [0, 2^subBits)
// plus half an octave of sub-buckets for each of the 63−subBits octaves a
// positive int64 can occupy (the last bucket's upper bound is MaxInt64).
const hdrBuckets = (1 << hdrSubBits) + (63-hdrSubBits)*(1<<(hdrSubBits-1))

// NewHDRHistogram returns an empty histogram covering [0, 2^63).
func NewHDRHistogram() *HDRHistogram {
	return &HDRHistogram{counts: make([]int64, hdrBuckets)}
}

// hdrIndex maps a value to its bucket.
func hdrIndex(v int64) int {
	if v < 1<<hdrSubBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor log2, >= hdrSubBits
	// Top hdrSubBits bits of v: in [2^(subBits-1), 2^subBits).
	sub := int(v >> (e - hdrSubBits + 1))
	octave := e - hdrSubBits // 0 for the first log-linear octave
	const half = 1 << (hdrSubBits - 1)
	return (1 << hdrSubBits) + octave*half + (sub - half)
}

// hdrUpperBound returns the largest value mapping to bucket i — the value
// Quantile reports for a quantile landing in that bucket (so quantiles
// never under-report a recorded latency).
func hdrUpperBound(i int) int64 {
	if i < 1<<hdrSubBits {
		return int64(i)
	}
	const half = 1 << (hdrSubBits - 1)
	rel := i - (1 << hdrSubBits)
	octave := rel / half
	sub := rel%half + half
	width := uint64(1) << (octave + 1) // sub-bucket width in this octave
	// Unsigned so the very last bucket (bound 2^63 − 1) doesn't overflow.
	return int64(uint64(sub+1)*width - 1)
}

// Record folds one non-negative value into the histogram. Negative values
// clamp to 0 so latency math that underflows cannot corrupt the layout.
func (h *HDRHistogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN folds n copies of v in O(1).
func (h *HDRHistogram) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.counts[hdrIndex(v)] += n
	h.count += n
}

// Count returns the number of recorded values.
func (h *HDRHistogram) Count() int64 { return h.count }

// Max returns the largest recorded value exactly (0 when empty) — the tail
// report's "max" column is the true maximum, not a bucket bound.
func (h *HDRHistogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (q in [0, 1], NaN read as 0) as the
// upper bound of the bucket holding that rank, clamped to the exact
// observed min/max. Returns 0 for an empty histogram.
func (h *HDRHistogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	// !(q >= 0) also catches NaN, whose int64 conversion below would be
	// platform-dependent.
	if !(q >= 0) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based; q=0 means the first sample.
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			v := hdrUpperBound(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds another histogram into h (per-worker recording, one merge at
// the end — the same pattern as Welford.Merge).
func (h *HDRHistogram) Merge(o *HDRHistogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.count += o.count
}
