package main

import (
	"math"
	"sort"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/microburst"
	"repro/internal/ndb"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wireless"
)

// runMicroburst reproduces the §2.1 comparison: per-packet TPP
// telemetry vs SNMP-style polling against an 8-to-1 incast.
func runMicroburst(out *output) error {
	cfg := microburst.DefaultConfig()
	cfg.Metrics, cfg.Trace = out.metrics, out.tracer
	res := microburst.Run(cfg)

	out.printf("§2.1 micro-burst detection: 8-to-1 incast, %d bursts of %d bytes every %v\n\n",
		res.BurstsGenerated, microburst.BurstBytes*microburst.Senders, microburst.Period)
	tbl := trace.NewTable("monitor", "samples", "bursts detected", "detection rate", "peak queue (B)")
	tbl.Row("TPP per-packet telemetry", res.TelemetrySamples,
		len(res.Episodes), sprintf("%.0f%%", 100*res.DetectionRateTPP()), res.TelemetryPeak)
	tbl.Row(sprintf("polling every %v", microburst.PollEvery), res.PollerPolls,
		res.PollerDetections, sprintf("%.0f%%", 100*res.DetectionRatePoller()), res.PollerPeak)
	out.printf("%s\nmean detected burst duration: %.0fus (invisible at 1s polling)\n\n",
		tbl.String(), res.MeanEpisodeUs)

	// Sampling-density ablation: how detection decays as telemetry
	// thins out from per-packet toward the polling regime.
	sweepCfg := res.Config
	sweepCfg.Bursts = 20
	dens := trace.NewTable("instrument every", "samples", "detection rate")
	for _, p := range microburst.SweepDensity(sweepCfg, []int{1, 4, 16, 64, 256, 1024}) {
		dens.Row(sprintf("1/%d packets", p.SampleEvery), p.Samples,
			sprintf("%.0f%%", 100*p.DetectionRate))
	}
	out.printf("sampling density (20 bursts):\n%s", dens.String())

	c := out.csv("microburst.csv", "episode", "start_s", "duration_us", "peak_bytes")
	for i, e := range res.Episodes {
		c.Row(i, netsim.Time(e.Start).Seconds(),
			float64(e.Duration())/float64(netsim.Microsecond), e.Peak)
	}
	return nil
}

// runNdb reproduces the §2.3 debugger: TPP traces verify forwarding
// against controller intent and catch an injected stale rule, at zero
// extra packets versus the copy-based baseline.
func runNdb(out *output) error {
	res := ndb.Run(ndb.Config{Metrics: out.metrics, Trace: out.tracer})

	out.printf("§2.3 forwarding-plane debugger on a 2x2 leaf-spine\n\n")
	tbl := trace.NewTable("phase", "traces", "violations")
	tbl.Row("conforming fabric", res.CleanTraces, res.CleanViolations)
	tbl.Row("after injected stale rule", res.BadTraces, len(res.BadViolations))
	out.printf("%s\nviolation kinds: ", tbl.String())
	kinds := make([]ndb.ViolationKind, 0, len(res.ViolationKinds))
	for kind := range res.ViolationKinds {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		out.printf("%s=%d ", kind, res.ViolationKinds[kind])
	}
	out.printf("\n\noverhead comparison over the same traffic:\n")
	cmp := trace.NewTable("mechanism", "extra packets", "extra bytes")
	cmp.Row("TPP traces (in-band)", 0, res.TPPInBandBytes)
	cmp.Row("ndb packet copies", res.BaselineCopies, res.BaselineCopyBytes)
	out.printf("%s\njourneys agree with the packet-copy baseline: %v\n",
		cmp.String(), res.JourneysAgree)

	c := out.csv("ndb.csv", "metric", "value")
	c.Row("clean_traces", res.CleanTraces)
	c.Row("bad_traces", res.BadTraces)
	c.Row("tpp_inband_bytes", res.TPPInBandBytes)
	c.Row("baseline_copies", res.BaselineCopies)
	c.Row("baseline_copy_bytes", res.BaselineCopyBytes)
	return nil
}

// runWireless reproduces the §2 wireless extension: per-packet SNR
// annotation tracks a fast-fading channel that coarse polling cannot.
func runWireless(out *output) error {
	sim := netsim.New(7)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	p2 := n.LinkHost(h2, sw, topo.Mbps(100, 0))
	n.PrimeL2(netsim.Millisecond)
	ap := wireless.NewAP(sim, sw, p2)

	var perPacketErr, polledErr, count float64
	polled := ap.SNRdB()
	sim.Every(sim.Now()+100*netsim.Millisecond, 100*netsim.Millisecond, func() { polled = ap.SNRdB() })
	h2.HandleDefault(func(pkt *core.Packet) {
		if pkt.TPP == nil {
			return
		}
		truth := ap.SNRdB()
		sample := wireless.SNRFromCentiDB(pkt.TPP.Word(0))
		perPacketErr += math.Abs(sample - truth)
		polledErr += math.Abs(polled - truth)
		count++
	})
	sim.Every(sim.Now()+netsim.Millisecond, netsim.Millisecond, func() {
		pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 100)
		pkt.TPP = wireless.SNRProgram(2)
		pkt.Eth.Type = core.EtherTypeTPP
		h1.Send(pkt)
	})
	sim.RunUntil(sim.Now() + 10*netsim.Second)

	perPacketErr /= count
	polledErr /= count
	out.printf("wireless SNR annotation (OU fading channel, mean 25 dB)\n\n")
	tbl := trace.NewTable("monitor", "mean abs error (dB)")
	tbl.Row("TPP per-packet annotation", perPacketErr)
	tbl.Row("100ms polling", polledErr)
	out.printf("%s\nper-packet annotation is %.1fx more accurate on this channel\n",
		tbl.String(), polledErr/perPacketErr)

	c := out.csv("wireless.csv", "monitor", "mean_abs_error_db")
	c.Row("tpp", perPacketErr)
	c.Row("polling", polledErr)
	return nil
}

// runBreakdown prints the §2.1 per-hop queueing-latency breakdown: a
// TPP samples queue and capacity at every hop, and the end-host
// localizes which hop the latency came from.
func runBreakdown(out *output) error {
	res := microburst.RunBreakdown(microburst.DefaultBreakdownConfig())
	out.printf("§2.1 per-hop queueing-latency breakdown (3-switch path, cross bursts at switch 2)\n\n")
	tbl := trace.NewTable("hop", "mean (us)", "p99 (us)", "max (us)")
	for _, h := range res.Hops {
		tbl.Row(h.Hop+1, h.MeanUs, h.P99Us, h.MaxUs)
	}
	out.printf("%s\n%d per-packet samples; hop %d dominates — the end-host sees exactly where the latency lives\n",
		tbl.String(), res.Samples, res.DominantHop+1)

	c := out.csv("breakdown.csv", "hop", "mean_us", "p99_us", "max_us")
	for _, h := range res.Hops {
		c.Row(h.Hop+1, h.MeanUs, h.P99Us, h.MaxUs)
	}
	return nil
}
