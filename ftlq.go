// Package ftlq ("faster-than-light coordination with quantum non-local
// games") is the public API of this repository — a Go implementation of
// Arun, Chidambaram & Aaronson, "Faster-than-light coordination for
// networked systems with quantum non-local games" (HotNets '25).
//
// The library lets networked-system components make instantly correlated
// decisions without communicating, by sharing entangled qubit pairs ahead
// of time and measuring them in input-dependent bases. Quantum hardware is
// simulated exactly (state vectors / density matrices with a Werner noise
// model); the correlations produced are precisely those physics allows, so
// results transfer to real SPDC-based deployments.
//
// # Quick start
//
//	session, err := ftlq.NewSession(ftlq.SessionConfig{
//		Game:     ftlq.NewColocationCHSH(),
//		Supplier: ftlq.PerfectSupplier{Visibility: 0.95},
//	})
//	...
//	d := session.Round(now, x, y) // both parties' correlated decisions
//
// The facade exports what the programs under examples/ call (GPU SM
// scheduling, serverless affinity routing, ECMP, deployment planning);
// everything else lives in the internal packages.
package ftlq

import (
	"repro/internal/core"
	"repro/internal/ecmp"
	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/xrand"
)

// Re-exported game types and constructors.
type (
	// XORGame is a two-party game whose win condition is a parity of the
	// answers — the class with a polynomial-time computable quantum value.
	XORGame = games.XORGame
	// JointSampler produces one round of correlated answers.
	JointSampler = games.JointSampler
)

// NewCHSH returns the standard CHSH game (classical 3/4, quantum cos²(π/8)).
func NewCHSH() *XORGame { return games.NewCHSH() }

// NewColocationCHSH returns the load-balancing variant of §4.1: output the
// same server bit iff both tasks are colocation-loving.
func NewColocationCHSH() *XORGame { return games.NewColocationCHSH() }

// Re-exported coordination session API.
type (
	// Session coordinates two parties through a game and an entanglement
	// supply with zero per-decision communication.
	Session = core.Session
	// SessionConfig assembles a Session.
	SessionConfig = core.Config
)

// NewSession builds a coordination session.
func NewSession(cfg SessionConfig) (*Session, error) { return core.NewSession(cfg) }

// CriticalVisibility returns the noise threshold below which a game's
// quantum strategy stops beating its classical optimum.
func CriticalVisibility(classical, quantum float64) float64 {
	return core.CriticalVisibility(classical, quantum)
}

// Re-exported entanglement substrate.
type (
	// PerfectSupplier always supplies pairs at a fixed visibility.
	PerfectSupplier = entangle.PerfectSupplier
	// QNICConfig models the quantum NIC (storage, decoherence, latency).
	QNICConfig = entangle.QNICConfig
)

// DefaultQNIC returns a mid-range room-temperature QNIC configuration.
func DefaultQNIC() QNICConfig { return entangle.DefaultQNIC() }

// Re-exported load-balancing simulator (the paper's Figure 4 testbed).
type (
	// LBConfig parametrizes a load-balancing simulation.
	LBConfig = loadbalance.Config
	// LBResult is one simulation's metrics.
	LBResult = loadbalance.Result
	// LBStrategy assigns tasks to servers each slot.
	LBStrategy = loadbalance.Strategy
)

// RunLB executes a load-balancing simulation.
func RunLB(cfg LBConfig, s LBStrategy) LBResult { return loadbalance.Run(cfg, s) }

// NewQuantumLB returns the paper's CHSH-paired quantum balancing strategy
// at the given visibility, seeded deterministically.
func NewQuantumLB(visibility float64, seed uint64) LBStrategy {
	return loadbalance.NewQuantumPairedStrategy(visibility, xrand.New(seed, 0xfacade))
}

// NewRandomLB returns the classical uniform-random baseline.
func NewRandomLB() LBStrategy { return loadbalance.RandomStrategy{} }

// Rand returns a deterministic random stream for use with the lower-level
// APIs (game solvers, samplers).
func Rand(seed uint64) *xrand.RNG { return xrand.New(seed, 0xfacade) }

// Re-exported ECMP study (the paper's §4.2 negative result).
type (
	// ECMPConfig parametrizes an ECMP collision simulation.
	ECMPConfig = ecmp.Config
	// ECMPResult is one ECMP simulation's metrics.
	ECMPResult = ecmp.Result
	// PathStrategy chooses ECMP paths for active switches.
	PathStrategy = ecmp.PathStrategy
)

// RunECMP executes an ECMP collision simulation.
func RunECMP(cfg ECMPConfig, s PathStrategy) ECMPResult { return ecmp.Run(cfg, s) }

// ECMPBestClassical returns the exact classical optimum for expected
// colliding pairs (n switches, m paths, k active).
func ECMPBestClassical(n, m, k int) float64 { return ecmp.ExactBestClassical(n, m, k) }

// CHSHCertificate is the result of a Bell-certification run against black-box
// decision hardware.
type CHSHCertificate = games.CHSHCertificate

// CertifyCHSH estimates the CHSH S-value of a sampler: S > 2 certifies
// entanglement, S ≤ 2√2 is the quantum (Tsirelson) consistency check.
func CertifyCHSH(s JointSampler, roundsPerSetting int, rng *xrand.RNG) CHSHCertificate {
	return games.CertifyCHSH(s, roundsPerSetting, rng)
}

// STsirelsonBound is the quantum limit on S (2√2).
const STsirelsonBound = games.TsirelsonBound
