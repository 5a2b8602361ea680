// Package entangle models the entanglement-distribution substrate of the
// paper's architecture (Figure 1): an SPDC photon-pair source streams
// entangled qubits over fiber to servers whose quantum NICs (QNICs) can
// store a qubit briefly and measure it in a configurable basis.
//
// The numbers default to the ranges §3 quotes: pair rates of 10⁴–10⁷ per
// second, room-temperature storage of 16–160 µs, multi-photon generation
// rates falling off "by several orders of magnitude" per added photon, and
// standard 0.2 dB/km fiber loss.
package entangle

import (
	"fmt"
	"math"
	"time"

	"repro/internal/netsim"
)

// SourceConfig describes an SPDC entangled-photon source and the fiber runs
// to the two (or more) endpoints.
type SourceConfig struct {
	// PairRate is the generation rate of entangled pairs, in pairs/second.
	// §3: 10⁴ to 10⁷ depending on the setup.
	PairRate float64
	// BaseVisibility is the Werner-state visibility of a freshly delivered
	// pair (1 = perfect Bell pair).
	BaseVisibility float64
	// NPhotonFalloff is the multiplicative rate penalty per photon beyond
	// two; §3 says multi-photon rates drop "by several orders of magnitude",
	// so the default is 1e-3.
	NPhotonFalloff float64
	// FiberLengthM is the one-way fiber run to each endpoint, in meters.
	FiberLengthM float64
	// AttenuationDBPerKm is fiber loss; 0.2 dB/km is standard telecom fiber.
	AttenuationDBPerKm float64
	// HeraldLatency is the classical post-processing delay between photon
	// arrival and the pair becoming usable (heralding detection, coincidence
	// matching, calibration) — the delivery-latency knob beyond raw fiber
	// propagation. Zero (the default) models instantaneous heralding.
	HeraldLatency time.Duration
}

// DefaultSource returns a mid-range room-temperature SPDC setup: 10⁵
// pairs/s, 0.98 visibility, 1 km fiber arms.
func DefaultSource() SourceConfig {
	return SourceConfig{
		PairRate:           1e5,
		BaseVisibility:     0.98,
		NPhotonFalloff:     1e-3,
		FiberLengthM:       1000,
		AttenuationDBPerKm: 0.2,
	}
}

// Validate checks the configuration is physical.
func (c SourceConfig) Validate() error {
	// The guards are written as !(in range) so a NaN, which fails every
	// comparison, is rejected with the out-of-range values.
	if !(c.PairRate > 0) {
		return fmt.Errorf("entangle: pair rate must be positive")
	}
	if c.Interval() <= 0 {
		return fmt.Errorf("entangle: pair rate %g/s leaves no interval on a nanosecond clock", c.PairRate)
	}
	if !(c.BaseVisibility >= 0 && c.BaseVisibility <= 1) {
		return fmt.Errorf("entangle: visibility must lie in [0,1]")
	}
	if !(c.NPhotonFalloff > 0 && c.NPhotonFalloff <= 1) {
		return fmt.Errorf("entangle: n-photon falloff must lie in (0,1]")
	}
	if !(c.AttenuationDBPerKm >= 0) || math.IsInf(c.AttenuationDBPerKm, 1) {
		return fmt.Errorf("entangle: fiber attenuation must be finite and non-negative")
	}
	// The one-way delay in ns must fit a time.Duration: past ≈ 1.8e18 m,
	// PropagationDelay would overflow int64. +Inf fails this too.
	if ns := c.FiberLengthM / netsim.SpeedOfLightFiber * float64(time.Second); !(c.FiberLengthM >= 0 && ns < math.MaxInt64) {
		return fmt.Errorf("entangle: fiber length %g m must be non-negative with a one-way delay that fits a time.Duration", c.FiberLengthM)
	}
	if c.HeraldLatency < 0 {
		return fmt.Errorf("entangle: negative herald latency")
	}
	return nil
}

// Interval returns the mean time between generation attempts.
func (c SourceConfig) Interval() time.Duration {
	return time.Duration(float64(time.Second) / c.PairRate)
}

// ArmTransmission returns the probability one photon survives its fiber arm.
func (c SourceConfig) ArmTransmission() float64 {
	lossDB := c.AttenuationDBPerKm * c.FiberLengthM / 1000
	return math.Pow(10, -lossDB/10)
}

// DeliveryProbability returns the probability that BOTH photons of a pair
// arrive (independent arm losses).
func (c SourceConfig) DeliveryProbability() float64 {
	t := c.ArmTransmission()
	return t * t
}

// DeliveredPairRate is the effective rate of usable pairs after fiber loss.
func (c SourceConfig) DeliveredPairRate() float64 {
	return c.PairRate * c.DeliveryProbability()
}

// RateForParties returns the generation rate of n-photon entangled states,
// applying the per-photon falloff (n = 2 is the base pair rate). §3: "the
// rates of multi-photon entanglement drop off sharply".
func (c SourceConfig) RateForParties(n int) float64 {
	if n < 2 {
		panic("entangle: entanglement needs at least 2 parties")
	}
	return c.PairRate * math.Pow(c.NPhotonFalloff, float64(n-2))
}

// PropagationDelay is the one-way fiber latency from source to endpoint.
func (c SourceConfig) PropagationDelay() time.Duration {
	return netsim.PropagationDelay(c.FiberLengthM)
}

// DeliveryLatency is the total generation-to-usable delay of one pair:
// fiber propagation plus heralding. This is the quantity the advantage
// frontier (E20) sweeps against the decision deadline — pairs must be IN
// the pool before a request arrives for the quantum path to beat a
// classical round trip.
func (c SourceConfig) DeliveryLatency() time.Duration {
	return c.PropagationDelay() + c.HeraldLatency
}

// QNICConfig describes the servers' quantum NIC (§3): bounded room-
// temperature storage with exponential decoherence, plus a fixed
// measurement latency.
type QNICConfig struct {
	// StorageLimit is the maximum time a qubit can be held before the QNIC
	// discards it. §3 quotes 16–160 µs demonstrated at room temperature.
	StorageLimit time.Duration
	// CoherenceT2 is the exponential decay constant of visibility while a
	// qubit is stored: V(t) = V₀·exp(−t/T2).
	CoherenceT2 time.Duration
	// MeasureLatency is the time to measure a qubit in a configured basis.
	MeasureLatency time.Duration
}

// DefaultQNIC returns a mid-range room-temperature QNIC: 100 µs storage,
// 200 µs T2, 1 µs measurement.
func DefaultQNIC() QNICConfig {
	return QNICConfig{
		StorageLimit:   100 * time.Microsecond,
		CoherenceT2:    200 * time.Microsecond,
		MeasureLatency: time.Microsecond,
	}
}

// Validate checks the configuration is physical.
func (c QNICConfig) Validate() error {
	if c.StorageLimit <= 0 || c.CoherenceT2 <= 0 {
		return fmt.Errorf("entangle: storage and coherence times must be positive")
	}
	if c.MeasureLatency < 0 {
		return fmt.Errorf("entangle: negative measurement latency")
	}
	return nil
}

// Pair is one stored entangled pair shared between two endpoints.
type Pair struct {
	// ArrivedAt is when both photons were stored in their QNICs.
	ArrivedAt time.Duration
	// V0 is the visibility at arrival.
	V0 float64
}

// VisibilityAt returns the pair's visibility after storage decoherence.
func (p Pair) VisibilityAt(now time.Duration, q QNICConfig) float64 {
	if now < p.ArrivedAt {
		panic("entangle: visibility queried before pair arrival")
	}
	age := now - p.ArrivedAt
	return p.V0 * math.Exp(-float64(age)/float64(q.CoherenceT2))
}

// Expired reports whether the QNIC has discarded the pair.
func (p Pair) Expired(now time.Duration, q QNICConfig) bool {
	return now-p.ArrivedAt > q.StorageLimit
}
