// Package rcp implements the §2.2 congestion-control experiments: three
// schemes on one harness.  Two live here — the Rate Control Protocol as
// RCP* ("an end-host implementation of RCP" built from TPP probes) and
// as the native in-switch baseline standing in for the paper's ns-2
// reference simulation; package aimd adds the TCP-style comparator.
// All of them run on Harness (the Figure 2 dumbbell, one delivered-bytes
// count per flow) and send through PacedFlow; an experiment — Figure 2
// here, aimd.RunComparison, fct.Run — is the harness plus what it
// samples.
//
// Both RCP variants share the control equation:
//
//	R(t+T) = R(t) * (1 - (T/d) * (α·(y(t)-C) + β·q(t)/d) / C)
//
// where y(t) is the average ingress link utilization, q(t) the average
// queue size, d the average round-trip time of flows on the link, C the
// link capacity, and α, β configurable gains (the paper uses α = 0.5,
// β = 1).
package rcp

import (
	"repro/internal/netsim"
)

// DefaultAlpha and DefaultBeta are the gains of Figure 2 ("we set
// α = 0.5, β = 1 for both").
const (
	DefaultAlpha = 0.5
	DefaultBeta  = 1.0
)

// MinRateFraction floors the fair-share rate at a small fraction of
// capacity so the control loop can always recover.
const MinRateFraction = 0.01

// Params holds the control-loop constants shared by a set of flows.
type Params struct {
	// Alpha and Beta are the control gains.
	Alpha, Beta float64
	// T is the control period ("computed periodically (every T
	// seconds)").
	T netsim.Time
	// D is the average round-trip time of flows traversing the link.
	D netsim.Time
}

// DefaultParams returns the Figure 2 configuration: α = 0.5, β = 1,
// T = 50ms against a 100ms flow RTT scale.
func DefaultParams() Params {
	return Params{Alpha: DefaultAlpha, Beta: DefaultBeta,
		T: 50 * netsim.Millisecond, D: 100 * netsim.Millisecond}
}

// Update applies the RCP control equation.  r, y and c are in
// bytes/second, q in bytes.  The result is clamped to
// [MinRateFraction*c, c].
func (p Params) Update(r, y, q, c float64) float64 {
	if c <= 0 {
		return 0
	}
	t := p.T.Seconds()
	d := p.D.Seconds()
	feedback := (t / d) * (p.Alpha*(y-c) + p.Beta*q/d) / c
	r = r * (1 - feedback)
	if min := MinRateFraction * c; r < min {
		r = min
	}
	if r > c {
		r = c
	}
	return r
}
