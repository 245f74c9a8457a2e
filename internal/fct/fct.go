// Package fct measures flow completion times — the metric RCP was
// designed for: "RCP is a congestion control algorithm that rapidly
// allocates link capacity to help flows finish quickly."
//
// A finite flow of a given size joins a 10 Mb/s bottleneck already
// carrying two long-running background flows, under any scheme the
// shared rcp.Harness runs (the experiment compares RCP* with the
// TCP-style AIMD comparator).  RCP* hands the newcomer its fair share in
// one control interval (the register already holds it); AIMD must ramp
// up additively from one segment per interval, so short flows take far
// longer than their serialization time.
package fct

import (
	"repro/internal/aimd"
	"repro/internal/netsim"
	"repro/internal/rcp"
)

// Config parameterizes one FCT measurement.
type Config struct {
	Scheme    rcp.Variant
	FlowBytes uint64 // size of the measured flow
}

// background is the number of long-running flows already on the link.
const background = 2

// DefaultConfig measures a 50 KB flow.
func DefaultConfig(scheme rcp.Variant) Config {
	return Config{Scheme: scheme, FlowBytes: 50_000}
}

// Result is one measurement.
type Result struct {
	Config Config
	// FCT is the completion time: from the flow's start to the last
	// payload byte arriving at the receiver.
	FCT netsim.Time
	// Ideal is the lower bound: flow bytes at the whole bottleneck
	// capacity.
	Ideal netsim.Time
	// FairIdeal is the bound at the flow's fair share (1/(bg+1) of
	// capacity).
	FairIdeal netsim.Time
	// Completed reports whether the flow finished within the run.
	Completed bool
}

// Slowdown is FCT normalized by the fair-share ideal.
func (r Result) Slowdown() float64 {
	if r.FairIdeal == 0 {
		return 0
	}
	return float64(r.FCT) / float64(r.FairIdeal)
}

// Run executes one measurement: the harness with the background pairs
// attached first, then the measured pair 0, plus a completion watch on
// pair 0's delivered bytes.  The sender transmits until the receiver
// has the full payload (no scheme here retransmits, so the sender keeps
// pushing through losses; the extra packets stand in for
// retransmissions) and the receiver-side completion stops it.
func Run(cfg Config) Result {
	const pairs = background + 1
	h := rcp.NewHarness(pairs, 1, nil)

	res := Result{Config: cfg}
	res.Ideal = netsim.Time(float64(cfg.FlowBytes) / h.Capacity * float64(netsim.Second))
	res.FairIdeal = res.Ideal * netsim.Time(pairs)

	const measureStart = 2 * netsim.Second // let background flows settle
	starts := make([]rcp.FlowStart, 0, pairs)
	for i := 1; i < pairs; i++ {
		starts = append(starts, rcp.FlowStart{Pair: i})
	}
	starts = append(starts, rcp.FlowStart{Pair: 0, At: measureStart})

	finishAt := netsim.Time(-1)
	h.Observe = func(pair int) {
		if pair == 0 && finishAt < 0 && h.Recv[0] >= cfg.FlowBytes {
			finishAt = h.Sim.Now()
			h.Flows[0].Stop()
		}
	}
	flowStart := h.Launch(aimd.SchemeFor(cfg.Scheme), starts) + measureStart
	h.Sim.RunUntil(flowStart + 120*netsim.Second)
	if finishAt >= 0 {
		res.Completed = true
		res.FCT = finishAt - flowStart
	}
	return res
}

// SweepSizes measures FCT across flow sizes for one scheme.
func SweepSizes(scheme rcp.Variant, sizes []uint64) []Result {
	out := make([]Result, 0, len(sizes))
	for _, s := range sizes {
		cfg := DefaultConfig(scheme)
		cfg.FlowBytes = s
		out = append(out, Run(cfg))
	}
	return out
}
