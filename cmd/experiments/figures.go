package main

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/rcp"
	"repro/internal/tcpu"
	"repro/internal/topo"
	"repro/internal/trace"
)

// runFig1 reproduces the Figure 1 walk: a PUSH [Queue:QueueSize] TPP
// traverses three switches behind a burst, its stack pointer advancing
// 0x0 -> 0x4 -> 0x8 -> 0xc while each hop deposits a queue snapshot.
func runFig1(out *output) error {
	sim := netsim.New(1)
	edge := topo.Mbps(80, 10*netsim.Microsecond)
	backbone := topo.Mbps(8, 10*netsim.Microsecond)
	n, src, dst, _ := topo.Line(sim, 3, edge, backbone, nil, nil)
	n.PrimeL2(5 * netsim.Millisecond)

	// Cross traffic: a burst queued ahead of the probe at switch 1.
	for i := 0; i < 20; i++ {
		src.Send(src.NewPacket(dst.MAC, dst.IP, 5000, 5001, 986))
	}

	probe := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, 3)
	prober := endhost.NewProber(src)
	var echoed *core.TPP
	prober.Probe(dst.MAC, dst.IP, probe, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 200*netsim.Millisecond)
	if echoed == nil {
		return fmt.Errorf("probe echo lost")
	}

	out.printf("Figure 1: PUSH [Queue:QueueSize] walking a 3-switch path behind a 20-packet burst\n\n")
	tbl := trace.NewTable("hop", "SP before", "SP after", "queue bytes recorded")
	for hop := 0; hop < 3; hop++ {
		tbl.Row(hop+1, sprintf("%#x", 4*hop), sprintf("%#x", 4*(hop+1)), echoed.Word(hop))
	}
	out.printf("%s\nfinal SP = %#x (three 4-byte snapshots, as in the paper's figure)\n",
		tbl.String(), echoed.Ptr)

	c := out.csv("fig1.csv", "hop", "queue_bytes")
	for hop := 0; hop < 3; hop++ {
		c.Row(hop+1, echoed.Word(hop))
	}
	return nil
}

// runFig2 reproduces Figure 2: R(t)/C of the 10 Mb/s bottleneck under
// RCP* and under the native-RCP baseline, flows joining at 0/10/20 s.
func runFig2(out *output) error {
	out.printf("Figure 2: R(t)/C on a 10 Mb/s bottleneck, flows start at t=0,10,20s (α=0.5, β=1)\n\n")
	results := map[rcp.Variant]rcp.Fig2Result{}
	for _, v := range []rcp.Variant{rcp.VariantStar, rcp.VariantBaseline} {
		cfg := rcp.DefaultFig2Config(v)
		cfg.Metrics = out.metrics
		res := rcp.RunFigure2(cfg)
		results[v] = res
		c := out.csv(fmt.Sprintf("fig2_%s.csv", v), "t_seconds", "r_over_c", "flow1_bps", "flow2_bps", "flow3_bps")
		for _, s := range res.Samples {
			c.Row(s.T, s.ROverC, s.Flows[0]*8, s.Flows[1]*8, s.Flows[2]*8)
		}
	}

	tbl := trace.NewTable("window", "flows", "ideal R/C",
		"RCP* mean R/C", "RCP mean R/C", "RCP* settle (s)", "RCP settle (s)")
	windows := []struct {
		lo, hi float64
		flows  int
	}{{0, 10, 1}, {10, 20, 2}, {20, 30, 3}}
	for _, w := range windows {
		ideal := 1.0 / float64(w.flows)
		star := results[rcp.VariantStar]
		base := results[rcp.VariantBaseline]
		tbl.Row(sprintf("%g-%gs", w.lo, w.hi), w.flows, ideal,
			star.MeanROverC(w.lo+5, w.hi),
			base.MeanROverC(w.lo+5, w.hi),
			star.ConvergenceTime(w.lo, w.hi, ideal, 0.2*ideal),
			base.ConvergenceTime(w.lo, w.hi, ideal, 0.2*ideal))
	}
	out.printf("%s\n(series in fig2_rcpstar.csv / fig2_baseline.csv when -out is set)\n", tbl.String())
	return nil
}

// runFig3 characterizes the Figure 3 pipeline: the stage ordering, the
// modeled latency of each stage for one packet, and the sustained
// forwarding rate of one switch under saturation.
func runFig3(out *output) error {
	out.printf("Figure 3: dataplane pipeline stages (simulated model)\n\n")

	tbl := trace.NewTable("stage", "model", "latency contribution")
	tbl.Row("RX PHY + parser", "netsim.Channel delivery", "serialization + propagation")
	tbl.Row("L2/L3/TCAM lookup", "asic.Switch.forward", "500ns fixed pipeline latency")
	tbl.Row("TCPU", "tcpu.Exec", "k+3 cycles, overlapped with pipeline")
	tbl.Row("memory manager", "asic.Queue", "0 (enqueue is combinational)")
	tbl.Row("scheduler + TX", "asic.Port.kick", "queueing + serialization")
	out.printf("%s\n", tbl.String())

	// Measured: single-switch store-and-forward latency and saturated
	// throughput.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	h1.NIC.SetCapacity(20_000)
	n.LinkHost(h1, sw, topo.Mbps(1000, 0))
	n.LinkHost(h2, sw, topo.Mbps(1000, 0))
	n.PrimeL2(netsim.Millisecond)

	var lastArrival netsim.Time
	var delivered int
	h2.HandleDefault(func(p *core.Packet) { delivered++; lastArrival = sim.Now() })
	start := sim.Now()
	const pkts = 10_000
	for i := 0; i < pkts; i++ {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 58)) // 100-byte frames
	}
	sim.RunUntil(sim.Now() + 10*netsim.Second)

	elapsed := (lastArrival - start).Seconds()
	out.printf("measured: %d 100-byte frames through one switch in %.4fs = %.2f Mpps at 1 Gb/s line rate\n",
		delivered, elapsed, float64(delivered)/elapsed/1e6)
	out.printf("per-packet forwarding latency: pipeline 500ns + 0.8us serialization at 1 Gb/s\n")

	c := out.csv("fig3.csv", "metric", "value")
	c.Row("frames", delivered)
	c.Row("elapsed_s", elapsed)
	c.Row("mpps", float64(delivered)/elapsed/1e6)
	return nil
}

// runFig4 reproduces the Figure 4 / §3.3 wire-format overheads.
func runFig4(out *output) error {
	out.printf("Figure 4 / §3.3: TPP wire overheads (12B header + 4B/instruction + packet memory)\n\n")
	tbl := trace.NewTable("instructions", "instr bytes", "hops", "per-hop mem bytes", "TPP bytes total")
	f := out.csv("fig4.csv", "instructions", "instr_bytes", "hops", "per_hop_bytes", "total_bytes")
	for _, ins := range []int{1, 2, 3, 4, 5} {
		for _, hops := range []int{1, 5, 7} {
			prog := make([]core.Instruction, ins)
			for i := range prog {
				prog[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase)}
			}
			tpp := core.NewTPP(core.AddrStack, prog, ins*hops)
			wire := tpp.AppendTo(nil)
			if len(wire) != tpp.WireLen() {
				return fmt.Errorf("wire length mismatch")
			}
			perHop := ins * 4
			tbl.Row(ins, ins*core.InstructionLen, hops, perHop, tpp.WireLen())
			f.Row(ins, ins*core.InstructionLen, hops, perHop, tpp.WireLen())
		}
	}
	out.printf("%s\npaper check: 5 instructions = 20 bytes of instructions; "+
		"5 instrs x 2 words/hop would be 40 bytes/hop of packet memory\n", tbl.String())
	return nil
}

// runFig5 reproduces the Figure 5 cycle model: k instructions retire in
// k+3 cycles, far inside the 300-cycle small-packet budget of §3.3.
func runFig5(out *output) error {
	out.printf("Figure 5 / §3.3: TCPU pipeline occupancy (4-cycle latency, 1 instr/cycle)\n\n")
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 2, TCPU: tcpu.Config{MaxInstructions: 16}})
	h := n.AddHost()
	n.LinkHost(h, sw, topo.Mbps(100, 0))
	sim.RunUntil(netsim.Millisecond)

	tbl := trace.NewTable("instructions", "cstores", "cycles", "ns @1GHz", "budget used")
	f := out.csv("fig5.csv", "instructions", "cstores", "cycles", "budget_fraction")
	for k := 1; k <= 5; k++ {
		for _, withCStore := range []bool{false, true} {
			ins := make([]core.Instruction, k)
			for i := range ins {
				ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase)}
			}
			cstores := 0
			if withCStore {
				ins[0] = core.Instruction{Op: core.OpCSTORE, A: uint16(mem.SRAMBase), B: 0}
				cstores = 1
			}
			tpp := core.NewTPP(core.AddrStack, ins, k+3)
			if withCStore {
				tpp.Ptr = 12 // stack above the CSTORE operand words
			}
			view := sw.ViewForTesting(nil, 0)
			res := (tcpu.Config{MaxInstructions: 16}).Exec(tpp, view)
			if res.Fault != nil {
				return res.Fault
			}
			frac := float64(res.Cycles) / float64(tcpu.BudgetCycles)
			tbl.Row(k, cstores, res.Cycles, res.Cycles, sprintf("%.1f%%", 100*frac))
			f.Row(k, cstores, res.Cycles, frac)
		}
	}
	out.printf("%s\nevery 5-instruction program fits in <3%% of the 300ns cut-through budget\n\n", tbl.String())

	// §1's line-rate arithmetic: "A 64-port 10GbE switch has to
	// process about a billion 64-byte-packets/second".
	lr := trace.NewTable("switch", "pkts/sec", "TCPU pipelines @1GHz", "cycles/pkt/pipeline")
	for _, cfgRow := range []struct {
		name  string
		ports int
		gbps  float64
	}{{"48x1GbE", 48, 1}, {"64x10GbE", 64, 10}, {"32x40GbE", 32, 40}} {
		c := tcpu.CheckLineRate(cfgRow.ports, cfgRow.gbps, 64, 5, 1.0)
		lr.Row(cfgRow.name, sprintf("%.2g", c.PacketsPerSecond),
			c.TCPUsNeeded, sprintf("%.1f", c.PerPacketBudgetCycles))
	}
	out.printf("line-rate feasibility for 5-instruction TPPs on minimum-size packets:\n%s", lr.String())
	return nil
}
