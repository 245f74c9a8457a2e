package main

import (
	"fmt"

	"repro/internal/ndb"
	"repro/internal/trace"
)

// runBlackhole reproduces the ndb-style blackhole hunt: a leaf-spine
// fabric link silently dies, end-host TPP hop traces localize it by
// set subtraction, and probe retry/recovery carries the sweep through
// the outage.  A hunt that does not localize the link fails the run.
func runBlackhole(out *output) error {
	cfg := ndb.DefaultBlackholeConfig()
	cfg.Trace = out.tracer
	res := ndb.RunBlackhole(cfg)

	out.printf("ndb blackhole localization on a %dx%d leaf-spine\n\n",
		ndb.BlackholeLeaves, ndb.BlackholeSpines)
	out.printf("injected fault: %s down from %v to %v\n\n",
		ndb.LinkID{Leaf: cfg.FailLeaf, Spine: cfg.FailSpine},
		ndb.FailAt, ndb.RecoverAt)

	tbl := trace.NewTable("round", "walks answered")
	walks := ndb.BlackholeSpines * (ndb.BlackholeLeaves - 1) * ndb.BlackholeSpines
	tbl.Row("healthy baseline", res.BaselinePaths)
	// Every dead walk is reaped exactly once, so the fault round
	// answered walks - timeouts.
	tbl.Row("fault active", walks-int(res.TimedOut))
	tbl.Row("after recovery", res.RecoveredPaths)
	out.printf("%s\n", tbl.String())

	out.printf("evidence: %d candidate links from dead walks, %d proven up by traces\n",
		len(res.Candidates), len(res.ProvenUp))
	out.printf("suspects: %v  localized: %v\n", res.Suspects, res.Localized)
	out.printf("probes: sent=%d echoed=%d timed-out=%d retransmitted=%d\n",
		res.ProbesSent, res.Echoed, res.TimedOut, res.Retransmits)

	c := out.csv("blackhole.csv", "metric", "value")
	c.Row("baseline_walks", res.BaselinePaths)
	c.Row("recovered_walks", res.RecoveredPaths)
	c.Row("candidates", len(res.Candidates))
	c.Row("proven_up", len(res.ProvenUp))
	c.Row("suspects", len(res.Suspects))
	c.Row("localized", res.Localized)
	c.Row("probes_sent", res.ProbesSent)
	c.Row("probes_echoed", res.Echoed)
	c.Row("probes_timed_out", res.TimedOut)
	c.Row("retransmits", res.Retransmits)
	if !res.Localized {
		return fmt.Errorf("blackhole not localized: suspects %v", res.Suspects)
	}
	return nil
}
