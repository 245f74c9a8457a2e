package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/trace"
)

// runReboot runs the composed chaos soak: switch crash-restarts under a
// live RCP* flow, a shared accounting tally, bursty fabric loss, a
// silent blackhole and a TCPU admission gate, all on one seeded plan.
// It reports how every end-host mechanism rode out the crashes and that
// the dataplane telemetry reconciles exactly with the switch counters.
func runReboot(out *output) error {
	cfg := chaos.Default(1)
	res := chaos.Run(cfg)

	out.printf("switch crash-restart soak on a 3x2 leaf-spine (%v, seed %d)\n\n",
		cfg.Duration, cfg.Seed)
	reboots := chaos.RebootAt()
	out.printf("fault plan: %d spine-0 reboots (boot delay %v), bursty loss %v-%v, blackhole %v-%v, TCPU gate %.0f TPPs/s burst %d\n\n",
		len(reboots), chaos.BootDelay, chaos.LossFrom, chaos.LossTo,
		chaos.HoleFrom, chaos.HoleTo, chaos.TPPRate, chaos.TPPBurst)

	tbl := trace.NewTable("mechanism", "outcome")
	tbl.Row("queue conservation (leaked pkts)", res.Leaked)
	tbl.Row("reboots / drops while dark", joinCounts(res.Reboots, res.RebootDrops))
	tbl.Row("RCP* epoch bumps detected", res.EpochBumps)
	tbl.Row("RCP* rate-register re-seeds", res.Reinits)
	tbl.Row("accounting polls / discontinuities", joinCounts(uint64(res.Polls), res.Discontinuities))
	tbl.Row("accounting negative deltas", res.NegativeDeltas)
	tbl.Row("TPPs throttled at leaf 2", res.Throttled)
	tbl.Row("throttled echoes returned", res.ThrottledEchoes)
	out.printf("%s\n", tbl.String())

	out.printf("recovery: rate 30 control intervals after each reboot (fair share 1.25e6 B/s):\n")
	for i, r := range res.RateAfterReboot {
		out.printf("  reboot %d at %v: %.0f B/s\n", i, reboots[i], r)
	}
	out.printf("telemetry reconciliation: reboot spans=%d metric=%d; drop spans=%d metric=%d; throttle spans=%d metric=%d (spans dropped: %d)\n",
		res.RebootSpans, res.RebootsMetric, res.RebootDropSpans, res.RebootDropMetric,
		res.ThrottleSpans, res.ThrottleMetric, res.SpansDropped)

	// The soak is an experiment AND an invariant check: a broken
	// robustness contract must fail the run (non-zero exit), not just
	// print odd numbers.
	switch {
	case !res.Scenario.OK():
		return fmt.Errorf("scenario not OK: aborted=%q failures=%v",
			res.Scenario.Aborted, res.Scenario.Failures())
	case res.Leaked != 0:
		return fmt.Errorf("queue conservation violated: %d packets unaccounted", res.Leaked)
	case res.Reboots != uint64(len(reboots)):
		return fmt.Errorf("reboots = %d, want %d", res.Reboots, len(reboots))
	case res.EpochBumps < uint64(len(reboots)):
		return fmt.Errorf("RCP* detected %d epoch bumps across %d reboots",
			res.EpochBumps, len(reboots))
	case res.NegativeDeltas != 0:
		return fmt.Errorf("accounting reported %d negative deltas", res.NegativeDeltas)
	case res.Discontinuities == 0:
		return fmt.Errorf("counter wipes never flagged as discontinuities")
	case res.SpansDropped != 0:
		return fmt.Errorf("tracer dropped %d spans", res.SpansDropped)
	}

	c := out.csv("reboot.csv", "metric", "value")
	c.Row("leaked_pkts", res.Leaked)
	c.Row("reboots", res.Reboots)
	c.Row("reboot_drops", res.RebootDrops)
	c.Row("epoch_bumps", res.EpochBumps)
	c.Row("rate_reseeds", res.Reinits)
	c.Row("polls", res.Polls)
	c.Row("discontinuities", res.Discontinuities)
	c.Row("negative_deltas", res.NegativeDeltas)
	c.Row("tpps_throttled", res.Throttled)
	c.Row("throttled_echoes", res.ThrottledEchoes)
	for i, r := range res.RateAfterReboot {
		c.Row(fmt.Sprintf("rate_after_reboot_%d", i), int64(r))
	}
	return nil
}

func joinCounts(a, b uint64) string { return fmt.Sprintf("%d / %d", a, b) }
