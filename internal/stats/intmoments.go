package stats

import (
	"math/big"
	"math/bits"
)

// IntMoments accumulates an integer stream's count, min, max, Σx and Σx²
// exactly, the sums in 128 bits: a few integer adds per sample instead of
// Welford's float divide on a loop-carried chain, converted once, at the end,
// to correctly rounded moments. Exact while Σx² < 2¹²⁸. The zero value is
// ready to use.
type IntMoments struct {
	n, min, max int64
	sumHi       int64 // Σx = sumHi·2⁶⁴ + sumLo, two's complement
	sumLo       uint64
	sqHi, sqLo  uint64 // Σx² = sqHi·2⁶⁴ + sqLo
}

// Add folds x into the accumulator.
func (m *IntMoments) Add(x int64) {
	if m.n == 0 || x < m.min {
		m.min = x
	}
	if m.n == 0 || x > m.max {
		m.max = x
	}
	m.n++
	var c uint64
	m.sumLo, c = bits.Add64(m.sumLo, uint64(x), 0)
	m.sumHi += x>>63 + int64(c)
	a := uint64(x) // |x|, which for MinInt64 only an unsigned word holds
	if x < 0 {
		a = -a
	}
	hi, lo := bits.Mul64(a, a)
	m.sqLo, c = bits.Add64(m.sqLo, lo, 0)
	m.sqHi += hi + c
}

// Fold adds a block of n samples given by their sum, their sum of squares
// sqHi·2⁶⁴ + sqLo and their min and max, leaving the state n calls of Add
// would: a hot loop keeps these in locals and folds once per block. The
// block's Σx must fit in an int64. A block with n == 0 adds nothing.
func (m *IntMoments) Fold(n, sum int64, sqHi, sqLo uint64, lo, hi int64) {
	if n == 0 {
		return
	}
	if m.n == 0 || lo < m.min {
		m.min = lo
	}
	if m.n == 0 || hi > m.max {
		m.max = hi
	}
	m.n += n
	var c uint64
	m.sumLo, c = bits.Add64(m.sumLo, uint64(sum), 0)
	m.sumHi += sum>>63 + int64(c)
	m.sqLo, c = bits.Add64(m.sqLo, sqLo, 0)
	m.sqHi += sqHi + c
}

// Welford returns the moments as a Welford accumulator holding the float64s
// nearest the exact mean Σx/n and the exact sum of squared deviations
// (n·Σx² − (Σx)²)/n, computed in math/big once per stream.
func (m *IntMoments) Welford() Welford {
	if m.n == 0 {
		return Welford{}
	}
	n := big.NewInt(m.n)
	sum := new(big.Int).Lsh(big.NewInt(m.sumHi), 64)
	sum.Add(sum, new(big.Int).SetUint64(m.sumLo))
	sq := new(big.Int).Lsh(new(big.Int).SetUint64(m.sqHi), 64)
	sq.Add(sq, new(big.Int).SetUint64(m.sqLo))
	mean, _ := new(big.Rat).SetFrac(sum, n).Float64()
	dev := new(big.Int).Mul(n, sq)
	dev.Sub(dev, new(big.Int).Mul(sum, sum))
	m2, _ := new(big.Rat).SetFrac(dev, n).Float64()
	return Welford{n: m.n, mean: mean, m2: m2, min: float64(m.min), max: float64(m.max)}
}
