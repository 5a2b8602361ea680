package linalg

// Flat real-vector kernel for the XOR-game solvers: the solvers keep their
// vectors as rows of contiguous row-major buffers ([]float64 with stride d)
// instead of jagged [][]float64, and FlatDot is the blocked inner loop.
//
// It keeps a SINGLE sequential accumulator chain: the unrolled body
// performs exactly the same floating-point operations, in exactly the same
// order, as the naive element loop (and therefore as RVec.Dot). The speedup
// comes from bounds-check elimination and loop overhead, never from
// re-association — which is what keeps the flat solver bit-identical to
// the jagged reference.

// FlatDot returns Σ a_i·b_i accumulated left to right. a and b must have
// equal length.
func FlatDot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: FlatDot dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s += x[0] * y[0]
		s += x[1] * y[1]
		s += x[2] * y[2]
		s += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}
