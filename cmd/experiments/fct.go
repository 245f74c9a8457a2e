package main

import (
	"fmt"

	"repro/internal/fct"
	"repro/internal/netsim"
	"repro/internal/rcp"
	"repro/internal/trace"
)

// runFCT is the extension experiment for RCP's headline metric: flow
// completion time.  A finite flow joins a 10 Mb/s bottleneck carrying
// two background flows; RCP* reads its fair share from the rate
// register and finishes near the fair-share bound, while the TCP-style
// AIMD flow pays a fixed ramp-up penalty that dominates short flows.
func runFCT(out *output) error {
	return fctTable(out, []uint64{20_000, 50_000, 100_000, 250_000, 500_000, 1_000_000})
}

// fctTable sweeps both schemes over sizes.  A flow that does not finish
// inside the run has no completion time to report, so it is an error,
// not a 0 ms row.
func fctTable(out *output, sizes []uint64) error {
	sweep := func(v rcp.Variant) ([]fct.Result, error) {
		res := fct.SweepSizes(v, sizes)
		for _, r := range res {
			if !r.Completed {
				return nil, fmt.Errorf("%s flow of %d bytes did not finish within the run", v, r.Config.FlowBytes)
			}
		}
		return res, nil
	}
	star, err := sweep(rcp.VariantStar)
	if err != nil {
		return err
	}
	tcp, err := sweep(rcp.VariantAIMD)
	if err != nil {
		return err
	}

	out.printf("extension: flow completion time vs flow size (2 background flows, 10 Mb/s bottleneck)\n\n")
	tbl := trace.NewTable("flow size (KB)", "fair ideal (ms)",
		"RCP* FCT (ms)", "AIMD FCT (ms)", "RCP* slowdown", "AIMD slowdown")
	f := out.csv("fct.csv", "size_bytes", "fair_ideal_ms", "rcpstar_ms", "aimd_ms")
	for i, size := range sizes {
		ms := func(t netsim.Time) float64 { return float64(t) / float64(netsim.Millisecond) }
		tbl.Row(size/1000, ms(star[i].FairIdeal),
			ms(star[i].FCT), ms(tcp[i].FCT),
			sprintf("%.1fx", star[i].Slowdown()), sprintf("%.1fx", tcp[i].Slowdown()))
		f.Row(size, ms(star[i].FairIdeal), ms(star[i].FCT), ms(tcp[i].FCT))
	}
	out.printf("%s\nshort flows: RCP* wins by the ramp-up cost AIMD must pay; the gap closes as size grows\n",
		tbl.String())
	return nil
}
