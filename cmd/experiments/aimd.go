package main

import (
	"repro/internal/rcp"
	"repro/internal/trace"
)

// runAIMD is the extension experiment comparing RCP* against a
// TCP-style AIMD controller on the Figure 2 dumbbell: the quantitative
// version of the paper's motivation that loss-driven congestion control
// fills queues to find the fair share while RCP-style control reads it.
func runAIMD(out *output) error {
	cfg := rcp.DefaultCompareConfig()
	aimdRes := rcp.RunComparison(rcp.VariantAIMD, cfg)
	rcpRes := rcp.RunComparison(rcp.VariantStar, cfg)

	out.printf("extension: RCP* vs TCP-style AIMD on the Figure 2 dumbbell (3 staggered flows, 30s)\n\n")
	tbl := trace.NewTable("scheme", "utilization", "Jain fairness",
		"mean queue (B)", "drops", "flow goodputs (Mb/s)")
	for _, r := range []rcp.CompareResult{rcpRes, aimdRes} {
		g := ""
		for i, f := range r.FlowGoodput {
			if i > 0 {
				g += " / "
			}
			g += sprintf("%.2f", f*8/1e6)
		}
		tbl.Row(string(r.Scheme), sprintf("%.2f", r.Utilization),
			sprintf("%.3f", r.JainIndex), int(r.MeanQueueBytes), r.DropPkts, g)
	}
	out.printf("%s\nRCP* reads the fair share from switch state; AIMD must fill the buffer and drop to find it\n",
		tbl.String())

	c := out.csv("aimd.csv", "scheme", "utilization", "jain", "mean_queue_bytes", "drops")
	for _, r := range []rcp.CompareResult{rcpRes, aimdRes} {
		c.Row(string(r.Scheme), r.Utilization, r.JainIndex, r.MeanQueueBytes, r.DropPkts)
	}
	return nil
}
