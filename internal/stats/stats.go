// Package stats provides the small statistics toolkit the experiment
// harnesses rely on: streaming moments (Welford, exact integer moments),
// confidence intervals, batch means, a rolling window, a log-bucketed HDR
// histogram and swept series.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a stream's count, mean and variance in one pass with
// numerically stable updates. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge combines another accumulator into w (parallel Welford merge).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// Count returns the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Min returns the smallest sample seen (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample seen (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval on the mean.
func (w *Welford) CI95() float64 { return 1.959964 * w.StdErr() }

// String renders "mean ± ci95 (n=...)".
func (w *Welford) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", w.Mean(), w.CI95(), w.n)
}

// Proportion tracks a Bernoulli success rate with a Wilson confidence
// interval, used for win-probability estimates.
type Proportion struct {
	successes int64
	trials    int64
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// AddBatch records k successes out of n trials.
func (p *Proportion) AddBatch(successes, trials int64) {
	p.successes += successes
	p.trials += trials
}

// Trials returns the number of recorded trials.
func (p *Proportion) Trials() int64 { return p.trials }

// Successes returns the number of recorded successes.
func (p *Proportion) Successes() int64 { return p.successes }

// Rate returns the observed success fraction.
func (p *Proportion) Rate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// Wilson95 returns the Wilson-score 95% interval (lo, hi) for the rate.
func (p *Proportion) Wilson95() (lo, hi float64) {
	if p.trials == 0 {
		return 0, 1
	}
	const z = 1.959964
	n := float64(p.trials)
	phat := p.Rate()
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n))
	return center - half, center + half
}

// Contains95 reports whether the Wilson 95% interval covers v.
func (p *Proportion) Contains95(v float64) bool {
	lo, hi := p.Wilson95()
	return v >= lo && v <= hi
}

// Series is an (x, y±ci) table for a swept experiment — one row per sweep
// point — matching how the paper's figures are laid out.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	CI   []float64
}

// Append adds one sweep point.
func (s *Series) Append(x, y, ci float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.CI = append(s.CI, ci)
}

// Len returns the number of sweep points.
func (s *Series) Len() int { return len(s.X) }

// KneeX estimates the "knee" of a monotone-ish series: the smallest x at
// which y exceeds threshold. Returns NaN when the series never crosses.
// The paper reads Figure 4 by where queue length "begins to increase
// rapidly"; a fixed-threshold crossing is a reproducible proxy for that.
func (s *Series) KneeX(threshold float64) float64 {
	for i := range s.X {
		if s.Y[i] > threshold {
			if i == 0 {
				return s.X[0]
			}
			// Linear interpolation between the bracketing points.
			x0, x1 := s.X[i-1], s.X[i]
			y0, y1 := s.Y[i-1], s.Y[i]
			if y1 == y0 {
				return x1
			}
			return x0 + (threshold-y0)/(y1-y0)*(x1-x0)
		}
	}
	return math.NaN()
}
