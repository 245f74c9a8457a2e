// Micro-burst example (§2.1): an 8-to-1 incast produces millisecond
// bursts that per-packet TPP telemetry catches and 1-second polling
// misses entirely.
//
//	go run ./examples/microburst
package main

import (
	"fmt"
	"strings"

	"repro/internal/microburst"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	cfg := microburst.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	res := microburst.Run(cfg)

	fmt.Printf("workload: %d senders x %d bytes, %d bursts, one every %v\n\n",
		microburst.Senders, microburst.BurstBytes, cfg.Bursts, microburst.Period)

	fmt.Printf("TPP telemetry:  %d samples, %d/%d bursts detected (peak queue %d bytes)\n",
		res.TelemetrySamples, len(res.Episodes), res.BurstsGenerated, res.TelemetryPeak)
	fmt.Printf("1s polling:     %d polls,   %d/%d bursts detected (peak queue %d bytes)\n\n",
		res.PollerPolls, res.PollerDetections, res.BurstsGenerated, res.PollerPeak)

	fmt.Println("first detected episodes:")
	for i, e := range res.Episodes {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(res.Episodes)-5)
			break
		}
		fmt.Printf("  t=%.3fs  duration=%6.0fus  peak=%6d bytes  (%d samples)\n",
			netsim.Time(e.Start).Seconds(),
			float64(e.Duration())/float64(netsim.Microsecond), e.Peak, e.Samples)
	}
	fmt.Printf("\nmean burst duration %.0fus: three orders of magnitude below the polling interval\n",
		res.MeanEpisodeUs)

	// The full occupancy distribution, not just the peak: per-packet
	// telemetry yields enough samples for meaningful percentiles.
	h := res.QueueDepth
	fmt.Printf("\nqueue-depth distribution (%d samples, p50=%d p99=%d max=%d bytes):\n",
		h.Count(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
	tb := trace.NewTable("bucket (bytes)", "count", "share")
	for i := 0; i < obs.NumBuckets; i++ {
		n := h.Bucket(i)
		if n == 0 {
			continue
		}
		lo, hi := obs.BucketLow(i), obs.BucketHigh(i)
		tb.Row(fmt.Sprintf("[%d, %d]", lo, hi), n,
			fmt.Sprintf("%.1f%%", 100*float64(n)/float64(h.Count())))
	}
	fmt.Print(indent(tb.String(), "  "))
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
