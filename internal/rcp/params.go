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
// link capacity, and α, β the control gains (α = 0.5, β = 1, as in the
// paper).
package rcp

import (
	"repro/internal/netsim"
)

// The Figure 2 control loop: the gains α = 0.5 and β = 1 ("we set
// α = 0.5, β = 1 for both"), the control period T ("computed
// periodically (every T seconds)") and d, the average round-trip time
// of flows traversing the link.
const (
	alpha         = 0.5
	beta          = 1.0
	ControlPeriod = 50 * netsim.Millisecond
	rttScale      = 100 * netsim.Millisecond
)

// MinRateFraction floors the fair-share rate at a small fraction of
// capacity so the control loop can always recover.
const MinRateFraction = 0.01

// nextRate applies the RCP control equation.  r, y and c are in
// bytes/second, q in bytes.  The result is clamped to
// [MinRateFraction*c, c].
func nextRate(r, y, q, c float64) float64 {
	if c <= 0 {
		return 0
	}
	t := ControlPeriod.Seconds()
	d := rttScale.Seconds()
	feedback := (t / d) * (alpha*(y-c) + beta*q/d) / c
	r = r * (1 - feedback)
	if min := MinRateFraction * c; r < min {
		r = min
	}
	if r > c {
		r = c
	}
	return r
}
