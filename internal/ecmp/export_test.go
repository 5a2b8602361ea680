package ecmp

import (
	"math"
)

// ExactBestClassicalEnumerated cross-checks ExactBestClassical by brute
// force over all m^n assignments. Panics if the search space exceeds ~16M.
func ExactBestClassicalEnumerated(n, m, k int) float64 {
	total := 1
	for i := 0; i < n; i++ {
		total *= m
		if total > 1<<24 {
			panic("ecmp: enumeration too large")
		}
	}
	p2 := pairActiveProb(n, k)
	best := math.Inf(1)
	assign := make([]int, n)
	for code := 0; code < total; code++ {
		c := code
		for i := 0; i < n; i++ {
			assign[i] = c % m
			c /= m
		}
		mono := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if assign[i] == assign[j] {
					mono++
				}
			}
		}
		if v := p2 * float64(mono); v < best {
			best = v
		}
	}
	return best
}
