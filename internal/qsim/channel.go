package qsim

import (
	"math"

	"repro/internal/linalg"
)

// Channel is a completely positive trace-preserving (CPTP) map given by its
// Kraus operators: ρ ↦ Σ K ρ K†. Channels model the physical noise the
// paper's §3 insists deployments account for: fiber dephasing, storage
// decoherence, depolarization.
type Channel struct {
	Name  string
	Kraus []*linalg.Mat
}

// Validate checks the trace-preservation condition Σ K†K = I.
func (c Channel) Validate(tol float64) bool {
	if len(c.Kraus) == 0 {
		return false
	}
	d := c.Kraus[0].Cols
	sum := linalg.NewMat(d, d)
	for _, k := range c.Kraus {
		if k.Cols != d || k.Rows != d {
			return false
		}
		sum = sum.Add(k.Dagger().Mul(k))
	}
	return sum.ApproxEqual(linalg.Identity(d), tol)
}

// Dephasing returns the phase-damping channel with probability p: coherences
// shrink by (1−p) while populations are untouched — the dominant noise for
// photonic qubits in storage.
func Dephasing(p float64) Channel {
	checkProb(p)
	return Channel{
		Name: "dephasing",
		Kraus: []*linalg.Mat{
			linalg.Identity(2).Scale(complex(math.Sqrt(1-p/2), 0)),
			GateZ().Scale(complex(math.Sqrt(p/2), 0)),
		},
	}
}

func checkProb(p float64) {
	if p < 0 || p > 1 {
		panic("qsim: channel probability out of [0,1]")
	}
}

// ApplyChannel applies a single-qubit channel to qubit k of the density
// matrix, returning a new state: ρ ↦ Σ (I⊗K⊗I) ρ (I⊗K⊗I)†.
func (d *Density) ApplyChannel(k int, c Channel) *Density {
	if k < 0 || k >= d.NumQubits {
		panic("qsim: ApplyChannel qubit out of range")
	}
	out := linalg.NewMat(d.Rho.Rows, d.Rho.Cols)
	for _, kr := range c.Kraus {
		full := expandOperator(d.NumQubits, k, kr)
		out = out.Add(full.Mul(d.Rho).Mul(full.Dagger()))
	}
	return &Density{NumQubits: d.NumQubits, Rho: out}
}

// expandOperator embeds a single-qubit operator on qubit k into the full
// space (like expandProjector, but for arbitrary operators).
func expandOperator(numQubits, k int, op *linalg.Mat) *linalg.Mat {
	var out *linalg.Mat
	for q := 0; q < numQubits; q++ {
		var factor *linalg.Mat
		if q == k {
			factor = op
		} else {
			factor = linalg.Identity(2)
		}
		if out == nil {
			out = factor
		} else {
			out = out.Kron(factor)
		}
	}
	return out
}
