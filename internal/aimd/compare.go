package aimd

import (
	"repro/internal/netsim"
	"repro/internal/rcp"
)

// CompareConfig parameterizes the AIMD-vs-RCP* comparison: the Figure 2
// dumbbell, identical for every scheme.
type CompareConfig struct {
	Duration       netsim.Time
	FlowStarts     []netsim.Time
	BottleneckMbps float64
	EdgeMbps       float64
	Seed           int64
}

// DefaultCompareConfig mirrors the Figure 2 setup.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{
		Duration:       30 * netsim.Second,
		FlowStarts:     []netsim.Time{0, 10 * netsim.Second, 20 * netsim.Second},
		BottleneckMbps: 10,
		EdgeMbps:       100,
		Seed:           1,
	}
}

// CompareResult summarizes one scheme's run.
type CompareResult struct {
	Scheme rcp.Variant
	// FlowGoodput is each flow's goodput over the final five seconds,
	// bytes/sec.
	FlowGoodput []float64
	// JainIndex is Jain's fairness index over FlowGoodput.
	JainIndex float64
	// MeanQueueBytes is the time-averaged bottleneck occupancy.
	MeanQueueBytes float64
	// DropPkts counts bottleneck drops over the whole run.
	DropPkts uint64
	// Utilization is delivered payload over capacity in the final
	// five seconds.
	Utilization float64
}

// RunComparison runs one scheme on the shared scenario: the harness
// plus a bottleneck-queue sampler and a goodput mark five seconds
// before the end.
func RunComparison(scheme rcp.Variant, cfg CompareConfig) CompareResult {
	flows := len(cfg.FlowStarts)
	h := rcp.NewHarness(flows, cfg.BottleneckMbps, cfg.EdgeMbps,
		rcp.DefaultParams(), cfg.Seed, nil)
	start := h.Launch(SchemeFor(scheme), rcp.Staggered(cfg.FlowStarts))

	var qSum float64
	var qCount int
	bn := h.A.Port(h.APort)
	h.Sim.Every(start+10*netsim.Millisecond, 10*netsim.Millisecond, func() {
		qSum += float64(bn.QueueBytes())
		qCount++
	})
	finalStart := make([]uint64, flows)
	h.Sim.At(start+cfg.Duration-5*netsim.Second, func() { copy(finalStart, h.Recv) })
	h.Sim.RunUntil(start + cfg.Duration)

	res := CompareResult{Scheme: scheme}
	var sum, sumsq float64
	for i := 0; i < flows; i++ {
		g := float64(h.Recv[i]-finalStart[i]) / 5
		res.FlowGoodput = append(res.FlowGoodput, g)
		sum += g
		sumsq += g * g
	}
	if sumsq > 0 {
		res.JainIndex = sum * sum / (float64(flows) * sumsq)
	}
	if qCount > 0 {
		res.MeanQueueBytes = qSum / float64(qCount)
	}
	res.DropPkts = bn.Queue(0).DropPkts
	res.Utilization = sum / h.Capacity
	return res
}
