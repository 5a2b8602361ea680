// Package benchlib is what the end-to-end binary (benchmark) and the traced
// binary (benchmark/trace) share: order statistics, the handler_mix request
// generator, the BENCHMARK.json reader, the result line, the noise canary
// and the host fingerprint. It imports only the standard library, so it
// survives any refactor of the program under test.
package benchlib

import (
	"math"
	"sort"
)

// Median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN for an empty slice. xs is not modified.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q ≤ 0 is the minimum, q ≥ 1 the maximum), or NaN for an
// empty slice. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := math.Min(math.Max(q, 0), 1) * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// SelfTimes is the onion subtraction: depths[i] is the time the same plan
// took when replayed down to depth i (0 = outermost entry point), so a
// depth's self time is its own total minus the next depth's, and the
// innermost depth keeps its total. A negative difference (the inner replay
// measured slower than the outer one — noise, or the replay is not
// equivalent) is reported as is, not clamped: hiding it would hide a broken
// replay.
func SelfTimes(depths []float64) []float64 {
	self := make([]float64, len(depths))
	for i := range depths {
		self[i] = depths[i]
		if i+1 < len(depths) {
			self[i] -= depths[i+1]
		}
	}
	return self
}
