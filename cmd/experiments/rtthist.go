package main

import (
	"fmt"

	"repro/internal/inband"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runRTTHist runs the in-band RTT histogram scenario: an end host
// CSTORE-buckets its own RTT samples into a tenant window at the spine,
// a collector sweeps the window with gated chunk TPPs, and the spine
// crash-restarts mid-run.  The table compares the dataplane-collected
// distribution against host-side ground truth and shows the exact
// CSTORE/sweep reconciliation across the wipe; a claim it prints false
// fails the run.
func runRTTHist(out *output) error {
	cfg := inband.DefaultHist(1)
	res := inband.RunHist(cfg)

	out.printf("in-band RTT histogram on a 2-leaf/1-spine fabric (%v, seed %d)\n",
		inband.HistDuration, cfg.Seed)
	out.printf("faults: spine reboot at %v (boot %v), bursty loss %v-%v\n\n",
		cfg.RebootAt, inband.HistBootDelay, inband.HistLossFrom, inband.HistLossTo)

	tbl := trace.NewTable("metric", "value")
	tbl.Row("RTT samples observed", res.Samples)
	tbl.Row("writer applied / duplicates", joinCounts(res.Applied, res.Duplicates))
	tbl.Row("writer rebases (epoch changes seen)", res.Rebases)
	tbl.Row("probe retransmissions", res.Retransmits)
	tbl.Row("switch CSTORE commits", res.SwitchCommits)
	tbl.Row("commits wiped by the crash", res.CapturedTotal)
	tbl.Row("commits in final SRAM", res.CurrentTotal)
	tbl.Row("collector sweeps / discontinuities", joinCounts(res.Sweeps, res.Discontinuities))
	tbl.Row("cumulative folded by sweeps", res.CumulativeTotal)
	out.printf("%s\n", tbl.String())

	match := res.Truth == res.Current && res.Truth == res.FinalSRAM
	out.printf("truth vs dataplane: bucket-for-bucket match = %v\n", match)
	out.printf("reconciliation: commits(%d) == metric(%d) == spans(%d); current(%d) + wiped(%d) == commits\n",
		res.SwitchCommits, res.CommitMetric, res.CommitSpans, res.CurrentTotal, res.CapturedTotal)

	out.printf("\nRTT distribution (non-empty buckets, ns):\n")
	for i := range res.Truth {
		if res.Truth[i] == 0 && res.Current[i] == 0 {
			continue
		}
		out.printf("  [%d, %d]: truth %d, dataplane %d\n",
			obs.BucketLow(i), obs.BucketHigh(i), res.Truth[i], res.Current[i])
	}

	c := out.csv("rtthist.csv", "bucket_lo", "bucket_hi", "truth_n", "dataplane_n", "cumulative_n", "wiped_n")
	for i := range res.Truth {
		if res.Truth[i] == 0 && res.Current[i] == 0 && res.Cumulative[i] == 0 && res.CapturedAtWipe[i] == 0 {
			continue
		}
		c.Row(obs.BucketLow(i), obs.BucketHigh(i),
			res.Truth[i], res.Current[i], res.Cumulative[i], res.CapturedAtWipe[i])
	}

	switch {
	case !match:
		return fmt.Errorf("dataplane histogram differs from host ground truth")
	case uint64(res.CommitMetric) != res.SwitchCommits || uint64(res.CommitSpans) != res.SwitchCommits:
		return fmt.Errorf("commits(%d), metric(%d) and spans(%d) disagree",
			res.SwitchCommits, res.CommitMetric, res.CommitSpans)
	case res.CurrentTotal+res.CapturedTotal != res.SwitchCommits:
		return fmt.Errorf("current(%d) + wiped(%d) != commits(%d)",
			res.CurrentTotal, res.CapturedTotal, res.SwitchCommits)
	}
	return nil
}
