package linalg

import (
	"math/cmplx"
)

// MaxAbs returns the largest entrywise modulus, a cheap matrix "norm".
func (m *Mat) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// AddScaled sets v ← v + c·w in place and returns v.
func (v RVec) AddScaled(c float64, w RVec) RVec {
	if len(v) != len(w) {
		panic("linalg: RVec.AddScaled dimension mismatch")
	}
	for i := range v {
		v[i] += c * w[i]
	}
	return v
}
