package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/trace"
)

// runHostile runs the hostile-tenant isolation soak: a rogue tenant
// floods forged write-TPPs at two guarded switches while two victim
// RCP* flows and a victim accounting pair share the fabric.  It reports
// that the guard confined every forged write, the admission quota
// absorbed the flood, and the victims' control loops and shared tally
// came through untouched.
func runHostile(out *output) error {
	cfg := chaos.DefaultHostile(1)
	res := chaos.RunHostile(cfg)

	out.printf("hostile-tenant soak on 2 guarded switches (%v, seed %d)\n\n",
		chaos.HostileDuration, cfg.Seed)
	out.printf("rogue: %.0f forged write-TPPs/s from %v (weighted share ~%.0f/s); victims: 2 RCP* flows + shared tally on a 20 Mb/s bottleneck\n\n",
		chaos.HostileRoguePPS, chaos.HostileRogueFrom, chaos.HostileTPPRate/31)

	tbl := trace.NewTable("mechanism", "edge switch", "far switch")
	tbl.Row("forged writes denied", res.Denied[0], res.Denied[1])
	tbl.Row("  = metric", res.DeniedMetric[0], res.DeniedMetric[1])
	tbl.Row("  = guard table", res.DeniedTable[0], res.DeniedTable[1])
	tbl.Row("  = deny spans", res.DeniedSpans[0], res.DeniedSpans[1])
	tbl.Row("victim accesses denied", res.VictimDenied[0], res.VictimDenied[1])
	tbl.Row("rogue TPPs throttled", res.RogueThrottled[0], res.RogueThrottled[1])
	tbl.Row("victim TPPs throttled", res.VictimThrottled[0], res.VictimThrottled[1])
	tbl.Row("queue conservation (leaked)", res.Leaked, "-")
	out.printf("%s\n", tbl.String())

	out.printf("rogue sent %d forged TPPs; every denial was the rogue's, every view of the count agrees\n\n", res.RogueSent)
	out.printf("victim convergence: v1 %.0f B/s, v2 %.0f B/s (fair share %.0f B/s, window from %v)\n",
		res.V1Mean, res.V2Mean, res.FairShare, chaos.HostileConvergeFrom)
	out.printf("victim tally: %d adds acknowledged, %d abandoned, SRAM word reads %d, poller saw %d negative deltas / %d discontinuities over %d polls\n",
		res.WriterDone, res.WriterFailures, res.TallyPhysical,
		res.NegativeDeltas, res.Discontinuities, res.Polls)

	// Isolation is a contract: a breach fails the run, not just the
	// prose.
	switch {
	case !res.Scenario.OK():
		return fmt.Errorf("scenario not OK: aborted=%q failures=%v",
			res.Scenario.Aborted, res.Scenario.Failures())
	case res.Leaked != 0:
		return fmt.Errorf("queue conservation violated: %d packets unaccounted", res.Leaked)
	case res.RogueSent == 0:
		return fmt.Errorf("rogue generator sent nothing")
	case res.VictimDenied[0]+res.VictimDenied[1] != 0:
		return fmt.Errorf("%d victim accesses denied; verified programs must never fault",
			res.VictimDenied[0]+res.VictimDenied[1])
	case res.RogueDenied[0] != res.Denied[0] || res.RogueDenied[1] != res.Denied[1]:
		return fmt.Errorf("denials not all the rogue's: rogue %v vs total %v",
			res.RogueDenied, res.Denied)
	case uint64(res.TallyPhysical) != res.WriterDone:
		return fmt.Errorf("tally word %d != %d acknowledged adds",
			res.TallyPhysical, res.WriterDone)
	case res.SpansDropped != 0:
		return fmt.Errorf("tracer dropped %d spans", res.SpansDropped)
	}

	c := out.csv("hostile.csv", "metric", "value")
	c.Row("rogue_sent", res.RogueSent)
	for i, name := range []string{"edge", "far"} {
		c.Row("denied_"+name, res.Denied[i])
		c.Row("victim_denied_"+name, res.VictimDenied[i])
		c.Row("rogue_throttled_"+name, res.RogueThrottled[i])
		c.Row("victim_throttled_"+name, res.VictimThrottled[i])
	}
	c.Row("v1_mean_bps", int64(res.V1Mean))
	c.Row("v2_mean_bps", int64(res.V2Mean))
	c.Row("fair_share_bps", int64(res.FairShare))
	c.Row("writer_done", res.WriterDone)
	c.Row("writer_failures", res.WriterFailures)
	c.Row("tally_physical", int64(res.TallyPhysical))
	c.Row("leaked_pkts", res.Leaked)
	return nil
}
