package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// TestHDRIndexRoundTrip: every value must land in a bucket whose bounds
// contain it, and bucket upper bounds must be monotone.
func TestHDRIndexRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 31, 32, 63, 64, 65, 66, 100, 127, 128, 1000, 1 << 20, 1<<20 + 7, 1 << 40, math.MaxInt64 / 2}
	for _, v := range values {
		i := hdrIndex(v)
		ub := hdrUpperBound(i)
		if v > ub {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, i, ub)
		}
		if i > 0 {
			lb := hdrUpperBound(i-1) + 1
			if v < lb {
				t.Fatalf("value %d below its bucket %d lower bound %d", v, i, lb)
			}
		}
	}
	prev := int64(-1)
	for i := 0; i < hdrBuckets; i++ {
		ub := hdrUpperBound(i)
		if ub <= prev {
			t.Fatalf("upper bounds not monotone at %d: %d <= %d", i, ub, prev)
		}
		prev = ub
	}
}

// TestHDRExactBelowSubBuckets: small values are recorded exactly.
func TestHDRExactBelowSubBuckets(t *testing.T) {
	h := NewHDRHistogram()
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 || h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	// The k-th of 64 uniform small values is exactly k-1 at q=(k-0.5)/64.
	for k := int64(1); k <= 64; k++ {
		q := (float64(k) - 0.5) / 64
		if got := h.Quantile(q); got != k-1 {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, k-1)
		}
	}
}

// TestHDRQuantileRelativeError: quantiles of a wide-range stream must stay
// within the advertised ~3.2% relative error of the exact order statistics.
func TestHDRQuantileRelativeError(t *testing.T) {
	rng := xrand.New(7, 0x1d)
	h := NewHDRHistogram()
	var exact []int64
	const n = 20000
	for i := 0; i < n; i++ {
		// Log-uniform over ~6 decades, the shape of a latency distribution
		// with a long tail.
		v := int64(math.Exp(rng.Float64()*13.8)) + int64(rng.IntN(50))
		exact = append(exact, v)
		h.Record(v)
	}
	// Exact order statistic via sorting a copy.
	sorted := append([]int64(nil), exact...)
	slices.Sort(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		rank := int(q*float64(n)+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= n {
			rank = n - 1
		}
		want := sorted[rank]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 1.0/32+1e-9 {
			t.Fatalf("Quantile(%v) = %d, exact %d, rel err %.4f > 1/32", q, got, want, relErr)
		}
	}
	if h.Quantile(1.0) != h.Max() {
		t.Fatalf("p100 %d != max %d", h.Quantile(1.0), h.Max())
	}
}

// TestHDRMergeMatchesSequential: recording through two histograms and
// merging must equal recording through one.
func TestHDRMergeMatchesSequential(t *testing.T) {
	rng := xrand.New(11, 3)
	one := NewHDRHistogram()
	a, b := NewHDRHistogram(), NewHDRHistogram()
	for i := 0; i < 5000; i++ {
		v := int64(rng.IntN(1 << 30))
		one.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(b)
	if a.Count() != one.Count() || a.Min() != one.Min() || a.Max() != one.Max() {
		t.Fatalf("merge count/min/max mismatch")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if a.Quantile(q) != one.Quantile(q) {
			t.Fatalf("merge Quantile(%v) = %d, sequential %d", q, a.Quantile(q), one.Quantile(q))
		}
	}
}

// TestHDREdgeCases: empty, negative clamp, RecordN, Reset.
func TestHDREdgeCases(t *testing.T) {
	h := NewHDRHistogram()
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	h.Record(-5) // clamps to 0
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative clamp: %d/%d/%d", h.Min(), h.Max(), h.Count())
	}
	h.RecordN(1000, 99)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.999); q < 1000 || q > 1031 {
		t.Fatalf("p999 = %d, want ~1000 within one sub-bucket", q)
	}
	h.RecordN(5, 0) // no-op
	if h.Count() != 100 {
		t.Fatal("RecordN(_, 0) must be a no-op")
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(1) != 0 {
		t.Fatal("reset failed")
	}
}

// TestHDRRecordAllocs: Record must be allocation-free — it sits on the
// load-test recording path.
func TestHDRRecordAllocs(t *testing.T) {
	h := NewHDRHistogram()
	avg := testing.AllocsPerRun(1000, func() { h.Record(12345) })
	if avg != 0 {
		t.Fatalf("Record allocates %v per op", avg)
	}
}

// FuzzHDRQuantileBound pins HDRHistogram's stated error bound against the
// exact sorted sample. The input bytes are read as little-endian int64
// values (negatives record as 0), q is the quantile asked for and split
// cuts the sequence in two for the Merge check. For every input:
//
//   - Quantile(q) is never below the exact value at rank ⌊q·n + ½⌋
//     (clamped to 1…n; q is clamped to [0, 1] and NaN reads as 0), never
//     above it by more than 1/32 of it, and values under 64 come back
//     exactly;
//   - Min and Max are the exact extremes;
//   - merging the two halves equals recording the whole.
func FuzzHDRQuantileBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, q float64, split uint16) {
		const maxValues = 4096
		vals := make([]int64, 0, min(len(data)/8, maxValues))
		for len(data) >= 8 && len(vals) < maxValues {
			vals = append(vals, max(int64(binary.LittleEndian.Uint64(data)), 0))
			data = data[8:]
		}
		k := int(split) % (len(vals) + 1)
		whole, left, right := NewHDRHistogram(), NewHDRHistogram(), NewHDRHistogram()
		for i, v := range vals {
			whole.Record(v)
			if i < k {
				left.Record(v)
			} else {
				right.Record(v)
			}
		}
		left.Merge(right)
		if !slices.Equal(left.counts, whole.counts) || left.count != whole.count ||
			left.min != whole.min || left.max != whole.max {
			t.Fatalf("merge of the split at %d differs from recording the whole", k)
		}

		got := whole.Quantile(q)
		n := int64(len(vals))
		if n == 0 {
			if got != 0 || whole.Min() != 0 || whole.Max() != 0 {
				t.Fatalf("empty histogram reads quantile %d, min %d, max %d", got, whole.Min(), whole.Max())
			}
			return
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		if whole.Min() != sorted[0] || whole.Max() != sorted[n-1] {
			t.Fatalf("min/max = %d/%d, exact %d/%d", whole.Min(), whole.Max(), sorted[0], sorted[n-1])
		}
		qc := q
		if !(qc >= 0) {
			qc = 0
		}
		qc = min(qc, 1)
		rank := min(max(int64(math.Floor(qc*float64(n)+0.5)), 1), n)
		want := sorted[rank-1]
		switch {
		case got < want:
			t.Fatalf("Quantile(%v) = %d under-reports the rank-%d value %d", q, got, rank, want)
		case got-want > want/32:
			t.Fatalf("Quantile(%v) = %d exceeds the rank-%d value %d by more than 1/32", q, got, rank, want)
		case want < 64 && got != want:
			t.Fatalf("Quantile(%v) = %d, want exactly %d below 64", q, got, want)
		}
	})
}
