package qsim

import "repro/internal/xrand"

// OutcomeTable is "measure once, sample many": the Born-rule distribution of
// a fixed state in fixed bases is a constant, so a caller drawing many rounds
// from one state keeps one distribution per basis choice instead of
// rebuilding state, projectors and products per draw.
//
// The contract is "same floats, same draws". A cell is filled on first use
// by the state's own OutcomeDistribution, so every probability is the one a
// per-draw caller computes and no basis choice is evaluated that the caller
// does not reach; Sample consumes exactly what SampleOutcomes does. Not safe
// for concurrent use.
type OutcomeTable struct {
	fill  func([]Basis) []float64
	bases [][]Basis   // bases[k]: the bases qubit k may be measured in
	dist  [][]float64 // one distribution per basis choice; nil until drawn
}

// OutcomeTable returns the table of s measured with qubit k in one of
// bases[k]. s must not be modified afterwards.
func (s *State) OutcomeTable(bases ...[]Basis) *OutcomeTable {
	return newOutcomeTable(s.NumQubits, s.OutcomeDistribution, bases)
}

// OutcomeTable returns the table of d measured with qubit k in one of
// bases[k]. d must not be modified afterwards.
func (d *Density) OutcomeTable(bases ...[]Basis) *OutcomeTable {
	return newOutcomeTable(d.NumQubits, d.OutcomeDistribution, bases)
}

func newOutcomeTable(numQubits int, fill func([]Basis) []float64, bases [][]Basis) *OutcomeTable {
	if len(bases) != numQubits {
		panic("qsim: need one basis set per qubit")
	}
	cells := 1
	for _, b := range bases {
		cells *= len(b)
	}
	return &OutcomeTable{fill: fill, bases: bases, dist: make([][]float64, cells)}
}

// Distribution returns the joint outcome distribution for one basis choice:
// the mixed-radix number whose digit k (qubit 0 most significant, radix
// len(bases[k])) selects qubit k's basis. The slice is shared, read-only.
func (t *OutcomeTable) Distribution(choice int) []float64 {
	if d := t.dist[choice]; d != nil {
		return d
	}
	picked := make([]Basis, len(t.bases))
	rem := choice
	for k := len(t.bases) - 1; k >= 0; k-- {
		picked[k] = t.bases[k][rem%len(t.bases[k])]
		rem /= len(t.bases[k])
	}
	t.dist[choice] = t.fill(picked)
	return t.dist[choice]
}

// Sample draws a joint outcome (qubit 0 as the most significant bit) for the
// basis choice.
func (t *OutcomeTable) Sample(choice int, rng *xrand.RNG) int {
	return sampleDist(t.Distribution(choice), rng)
}

// sampleDist is the package's one inverse-CDF walk: one Float64, left-to-right
// accumulation, floating-point slack landing on the last outcome.
func sampleDist(dist []float64, rng *xrand.RNG) int {
	u := rng.Float64()
	var acc float64
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}
