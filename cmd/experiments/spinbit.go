package main

import (
	"repro/internal/inband"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runSpinBit runs the passive spin-bit scenario: a client/server pair
// ping-pongs a single alternating TOS bit, a mid-path switch infers
// per-flow RTT purely from edge-to-edge intervals on that bit, and a
// collector sweeps the inferred histogram out of SRAM.  The table
// compares the observer's distribution against the client's own
// flip-interval measurements — with zero end-host instrumentation on
// the measured path.
func runSpinBit(out *output) error {
	const seed = 1
	res := inband.RunSpin(seed)

	out.printf("passive spin-bit RTT observer on a 3-switch line (%v, seed %d, %d flips)\n\n",
		inband.SpinDuration, seed, inband.SpinMaxFlips)

	tbl := trace.NewTable("metric", "value")
	tbl.Row("client spin flips (ground truth)", res.Flips)
	tbl.Row("observer edges detected", res.Edges)
	tbl.Row("observer samples bucketed", res.Samples)
	tbl.Row("collector sweeps", res.Sweeps)
	tbl.Row("sweep discontinuities", res.Discontinuities)
	out.printf("%s\n", tbl.String())

	match := res.Truth == res.SRAM && res.Truth == res.Current
	out.printf("truth vs observer: bucket-for-bucket match = %v\n", match)
	out.printf("reconciliation: edges(%d) == metric(%d) == spans(%d)\n",
		res.Edges, res.EdgesMetric, res.EdgeSpans)

	out.printf("\nRTT distribution (non-empty buckets, ns):\n")
	for i := range res.Truth {
		if res.Truth[i] == 0 && res.Current[i] == 0 {
			continue
		}
		out.printf("  [%d, %d]: truth %d, observer %d\n",
			obs.BucketLow(i), obs.BucketHigh(i), res.Truth[i], res.Current[i])
	}

	c := out.csv("spinbit.csv", "bucket_lo", "bucket_hi", "truth_n", "dataplane_n", "cumulative_n")
	for i := range res.Truth {
		if res.Truth[i] == 0 && res.Current[i] == 0 && res.Cumulative[i] == 0 {
			continue
		}
		c.Row(obs.BucketLow(i), obs.BucketHigh(i),
			res.Truth[i], res.Current[i], res.Cumulative[i])
	}
	return nil
}
