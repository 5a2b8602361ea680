// Package faults is the deterministic fault-injection layer for the
// entanglement supply chain. The paper's architecture (Figure 1, §3)
// assumes a continuous stream of Bell pairs from SPDC sources through
// fiber and repeaters into QNIC pools; real entanglement distribution is
// bursty and failure-prone, so this package models the §3 caveats as
// first-class, reproducible events:
//
//   - source outages (entangle.Service switched off),
//   - fiber-loss bursts (transient delivery-probability collapse),
//   - QNIC decoherence spikes (temporary T2 reduction in entangle.Pool),
//   - repeater BSM-failure windows (swap success collapse along a chain),
//   - pool corruption/flush events (quantum memory loss).
//
// Fault timelines are scripted windows driven by the netsim.Engine clock:
// a timeline is data, never a function of event interleaving or worker
// count, so every chaos run replays bit-for-bit.
package faults

import (
	"fmt"
	"sort"
	"time"
)

// Kind identifies a fault class.
type Kind int

const (
	// KindNone is the absence of a fault (nominal operation); scripted
	// phase tables use it for recovery windows.
	KindNone Kind = iota
	// KindSourceOutage switches the SPDC source off for the window.
	KindSourceOutage
	// KindFiberLossBurst multiplies the fiber delivery probability by the
	// window's severity.
	KindFiberLossBurst
	// KindDecoherenceSpike multiplies the pool's effective T2 by the
	// window's severity.
	KindDecoherenceSpike
	// KindBSMFailure multiplies a repeater chain's BSM success probability
	// by the window's severity; with S segments the end-to-end delivery
	// rate collapses by severity^(S−1).
	KindBSMFailure
	// KindPoolFlush drops every stored pair at the window's start (the
	// window has no duration — corruption is an instant, repair is refill).
	KindPoolFlush
	numKinds
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSourceOutage:
		return "source-outage"
	case KindFiberLossBurst:
		return "fiber-loss-burst"
	case KindDecoherenceSpike:
		return "decoherence-spike"
	case KindBSMFailure:
		return "bsm-failure"
	case KindPoolFlush:
		return "pool-flush"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NumKinds is the number of real fault kinds (excluding KindNone).
const NumKinds = int(numKinds) - 1

// Window is one fault activation: the fault is in force on [Start, End).
type Window struct {
	Kind  Kind
	Start time.Duration
	End   time.Duration
	// Severity is kind-specific: the delivery-probability multiplier for
	// fiber-loss bursts, the T2 multiplier for decoherence spikes, and the
	// BSM-success multiplier for repeater failures. Outages and flushes
	// ignore it.
	Severity float64
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End - w.Start }

// Validate checks one window.
func (w Window) Validate() error {
	if w.Kind <= KindNone || w.Kind >= numKinds {
		return fmt.Errorf("faults: window has invalid kind %d", int(w.Kind))
	}
	if w.End < w.Start || w.Start < 0 {
		return fmt.Errorf("faults: window [%v, %v) is not a valid interval", w.Start, w.End)
	}
	switch w.Kind {
	case KindFiberLossBurst, KindBSMFailure:
		if w.Severity < 0 || w.Severity > 1 {
			return fmt.Errorf("faults: %v severity %v outside [0,1]", w.Kind, w.Severity)
		}
	case KindDecoherenceSpike:
		if w.Severity <= 0 || w.Severity > 1 {
			return fmt.Errorf("faults: %v severity %v outside (0,1]", w.Kind, w.Severity)
		}
	}
	return nil
}

// Schedule is a deterministic fault timeline: windows sorted by start time
// (stable on ties). A Schedule is data, not behavior — the Injector applies
// it to a live supply chain, and Supplier applies it to an engine-less one.
type Schedule struct {
	Windows []Window
}

// Validate checks every window.
func (s Schedule) Validate() error {
	for i, w := range s.Windows {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
	}
	return nil
}

// sorted returns the windows ordered by (Start, original index).
func (s Schedule) sorted() []Window {
	out := append([]Window(nil), s.Windows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ActiveAt returns whether any window of the given kind is in force at t,
// and the product of the active windows' severities (1 when none).
func (s Schedule) ActiveAt(kind Kind, t time.Duration) (active bool, severity float64) {
	severity = 1
	for _, w := range s.Windows {
		if w.Kind == kind && w.Start <= t && t < w.End {
			active = true
			severity *= w.Severity
		}
	}
	return active, severity
}

// SupplyFactor returns the delivery-rate multiplier the schedule imposes at
// t for an engine-less supplier: 0 during an outage, otherwise the product
// of active fiber-burst and BSM-failure severities.
func (s Schedule) SupplyFactor(t time.Duration) float64 {
	if down, _ := s.ActiveAt(KindSourceOutage, t); down {
		return 0
	}
	f := 1.0
	if on, sev := s.ActiveAt(KindFiberLossBurst, t); on {
		f *= sev
	}
	if on, sev := s.ActiveAt(KindBSMFailure, t); on {
		f *= sev
	}
	return f
}

// VisibilityFactor returns the multiplier on delivered visibility at t for
// an engine-less supplier: decoherence spikes scale it by their severity
// (the coarse stand-in for the exact piecewise decay Pool.SetT2Scale
// applies in engine-driven runs).
func (s Schedule) VisibilityFactor(t time.Duration) float64 {
	if on, sev := s.ActiveAt(KindDecoherenceSpike, t); on {
		return sev
	}
	return 1
}
