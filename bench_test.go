// Package repro's top-level benchmarks: one benchmark per table and
// figure of the paper (see DESIGN.md §4 for the mapping), plus
// ablations of the design choices DESIGN.md §5 calls out.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/ndb"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/tcpu"
	"repro/internal/topo"
)

// benchSwitch builds a one-switch network and returns the switch, ready
// for direct TCPU execution through its memory view.
func benchSwitch(tb testing.TB) (*netsim.Sim, *asic.Switch) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 7, Ports: 2, TCPU: tcpu.Config{MaxInstructions: 16}})
	h := n.AddHost()
	n.LinkHost(h, sw, topo.Mbps(100, 0))
	sim.RunUntil(netsim.Millisecond)
	return sim, sw
}

// BenchmarkTable1 measures per-instruction TCPU execution cost for
// every opcode of Table 1.
func BenchmarkTable1(b *testing.B) {
	_, sw := benchSwitch(b)
	sramAddr := uint16(mem.SRAMBase + 1)
	qsize := uint16(mem.QueueBase + mem.QueueBytes)
	swID := uint16(mem.SwitchBase + mem.SwitchID)

	cases := []struct {
		name  string
		ins   core.Instruction
		setup func(*core.TPP)
	}{
		{"LOAD", core.Instruction{Op: core.OpLOAD, A: swID, B: 0}, nil},
		{"STORE", core.Instruction{Op: core.OpSTORE, A: sramAddr, B: 0}, nil},
		{"PUSH", core.Instruction{Op: core.OpPUSH, A: qsize}, nil},
		{"POP", core.Instruction{Op: core.OpPOP, A: sramAddr},
			func(t *core.TPP) { t.Ptr = 4 }},
		{"CSTORE", core.Instruction{Op: core.OpCSTORE, A: sramAddr, B: 0}, nil},
		{"CEXEC", core.Instruction{Op: core.OpCEXEC, A: swID, B: 0},
			func(t *core.TPP) { t.SetWord(0, 0xFFFFFFFF); t.SetWord(1, 7) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tpp := core.NewTPP(core.AddrStack, []core.Instruction{c.ins}, 4)
			view := sw.ViewForTesting(nil, 0)
			cfg := tcpu.Config{MaxInstructions: 16}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.setup != nil {
					c.setup(tpp)
				} else {
					tpp.Ptr = 0
				}
				res := cfg.Exec(tpp, view)
				if res.Fault != nil {
					b.Fatal(res.Fault)
				}
			}
		})
	}
}

// BenchmarkTable2 measures reading every statistic of the unified
// memory map through a packet view.
func BenchmarkTable2(b *testing.B) {
	_, sw := benchSwitch(b)
	view := sw.ViewForTesting(nil, 0)
	addrs := make([]mem.Addr, 0)
	for _, name := range mem.SymbolNames() {
		a, _ := mem.LookupSymbol(name)
		addrs = append(addrs, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			if _, err := view.Load(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(addrs)), "stats/op")
}

// BenchmarkFig1 measures a full end-to-end queue-size query: probe
// across three switches plus echo, including all simulation machinery.
func BenchmarkFig1(b *testing.B) {
	sim := netsim.New(1)
	n, src, dst, _ := topo.Line(sim, 3,
		topo.Mbps(1000, 10*netsim.Microsecond),
		topo.Mbps(1000, 10*netsim.Microsecond), asic.Config{})
	n.PrimeL2(5 * netsim.Millisecond)
	prober := endhost.NewProber(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		}, 3)
		done := false
		prober.Probe(dst.MAC, dst.IP, probe, func(*core.TPP) { done = true })
		sim.RunUntil(sim.Now() + 10*netsim.Millisecond)
		if !done {
			b.Fatal("probe lost")
		}
	}
}

// BenchmarkFig2 measures one simulated second of the Figure 2 RCP*
// experiment (three flows, probes, controllers, bottleneck dynamics).
func BenchmarkFig2(b *testing.B) {
	for _, v := range []rcp.Variant{rcp.VariantStar, rcp.VariantBaseline} {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := rcp.DefaultFig2Config(v)
				cfg.Duration = netsim.Second
				cfg.FlowStarts = []netsim.Time{0, 0, 0}
				res := rcp.RunFigure2(cfg)
				if len(res.Samples) == 0 {
					b.Fatal("no samples")
				}
			}
		})
	}
}

// BenchmarkFig3 measures the simulated switch pipeline's forwarding
// rate: packets pushed through one switch per wall-clock second.
func BenchmarkFig3(b *testing.B) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	_ = sw
	h1, h2 := n.AddHost(), n.AddHost()
	h1.NIC.SetCapacity(1 << 20)
	n.LinkHost(h1, sw, topo.Mbps(10_000, 0))
	n.LinkHost(h2, sw, topo.Mbps(10_000, 0))
	n.PrimeL2(netsim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 58))
		if i%1024 == 0 {
			sim.RunUntil(sim.Now() + netsim.Millisecond)
		}
	}
	sim.RunUntil(sim.Now() + netsim.Second)
	if h2.Received == 0 {
		b.Fatal("nothing forwarded")
	}
}

// BenchmarkFig4 measures TPP wire-format serialization and parsing (the
// per-packet cost a software dataplane would pay).
func BenchmarkFig4(b *testing.B) {
	for _, k := range []int{1, 5} {
		b.Run(fmt.Sprintf("serialize-%dins", k), func(b *testing.B) {
			ins := make([]core.Instruction, k)
			for i := range ins {
				ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase)}
			}
			tpp := core.NewTPP(core.AddrStack, ins, k*7)
			buf := make([]byte, 0, tpp.WireLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tpp.AppendTo(buf[:0])
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(fmt.Sprintf("parse-%dins", k), func(b *testing.B) {
			ins := make([]core.Instruction, k)
			for i := range ins {
				ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase)}
			}
			wire := core.NewTPP(core.AddrStack, ins, k*7).AppendTo(nil)
			var out core.TPP
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ParseTPP(wire, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(wire)))
		})
	}
}

// BenchmarkFig5 measures TCPU execution of the paper's canonical
// 5-instruction program and reports the modeled hardware cycles.
func BenchmarkFig5(b *testing.B) {
	_, sw := benchSwitch(b)
	ins := make([]core.Instruction, 5)
	for i := range ins {
		ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)}
	}
	view := sw.ViewForTesting(nil, 0)
	cfg := tcpu.Config{MaxInstructions: 16}
	tpp := core.NewTPP(core.AddrStack, ins, 5)
	var cycles int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpp.Ptr = 0
		res := cfg.Exec(tpp, view)
		if res.Fault != nil {
			b.Fatal(res.Fault)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "modeled-cycles")
}

// BenchmarkMicroburst measures the §2.1 detector on a pre-generated
// telemetry stream.
func BenchmarkMicroburst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := microburst.NewDetector(10_000, 10*netsim.Millisecond)
		for s := 0; s < 10_000; s++ {
			q := uint32(0)
			if s%100 < 10 {
				q = 50_000 // burst every 100 samples
			}
			d.Observe(netsim.Time(s)*netsim.Microsecond*100, q)
		}
		if len(d.Episodes()) == 0 {
			b.Fatal("no episodes")
		}
	}
}

// BenchmarkNdb measures trace parsing plus policy verification for one
// 5-hop journey.
func BenchmarkNdb(b *testing.B) {
	tpp := ndb.TraceProgram(5)
	for w := 0; w < 20; w++ {
		tpp.SetWord(w, uint32(w))
	}
	tpp.Ptr = 80
	want := make([]ndb.Expectation, 5)
	trace := ndb.ParseTrace(tpp)
	for i, h := range trace {
		want[i] = ndb.Expectation{SwitchID: h.SwitchID, EntryID: h.EntryID,
			EntryVersion: h.EntryVersion}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := ndb.ParseTrace(tpp)
		if v := ndb.Verify(tr, want); len(v) != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

// BenchmarkPipelineTelemetry measures the per-packet cost of the
// telemetry subsystem: a TPP-instrumented packet through one switch
// with metrics+tracing disabled (nil handles, the zero-cost contract —
// TestTelemetryDisabledNoExtraAllocs pins the exact allocation count)
// and enabled (atomic counters, histogram observes and span records;
// TestTelemetryEnabledPriceAsCounts pins that they add no allocation).
func BenchmarkPipelineTelemetry(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry, tr *obs.Tracer) {
		sim := netsim.New(1)
		n := topo.NewNetwork(sim)
		sw := n.AddSwitch(asic.Config{Ports: 4, Metrics: reg, Trace: tr})
		_ = sw
		h1, h2 := n.AddHost(), n.AddHost()
		h1.NIC.SetCapacity(1 << 20)
		n.LinkHost(h1, sw, topo.Mbps(10_000, 0))
		n.LinkHost(h2, sw, topo.Mbps(10_000, 0))
		n.PrimeL2(netsim.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 58)
			microburst.Instrument(pkt, 4)
			h1.Send(pkt)
			if i%1024 == 0 {
				sim.RunUntil(sim.Now() + netsim.Millisecond)
			}
		}
		sim.RunUntil(sim.Now() + netsim.Second)
		if h2.Received == 0 {
			b.Fatal("nothing forwarded")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil, nil) })
	b.Run("enabled", func(b *testing.B) {
		run(b, obs.NewRegistry(), obs.NewTracer(1<<20))
	})
}

// BenchmarkTCPU isolates program execution cost on one switch's memory
// view (DESIGN.md §13): the interpreter, the compiled form, and the
// compiled form reached through the ingress cache the way a switch
// actually reaches it (lookup included).  These three are the perf
// trajectory committed to BENCH_tcpu.json.
func BenchmarkTCPU(b *testing.B) {
	_, sw := benchSwitch(b)
	view := sw.ViewForTesting(nil, 0)
	cfg := tcpu.Config{MaxInstructions: 16}
	swID := uint16(mem.SwitchBase + mem.SwitchID)
	qsize := uint16(mem.QueueBase + mem.QueueBytes)
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: swID},
		{Op: core.OpPUSH, A: qsize},
		{Op: core.OpPUSH, A: swID},
		{Op: core.OpPUSH, A: qsize},
		{Op: core.OpPUSH, A: swID},
	}, 40)

	b.Run("interpret", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tpp.Ptr, tpp.Flags = 0, 0
			if r := cfg.Exec(tpp, view); r.Fault != nil {
				b.Fatal(r.Fault)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		p := tcpu.Compile(cfg, tpp)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tpp.Ptr, tpp.Flags = 0, 0
			if r := p.Exec(tpp, view); r.Fault != nil {
				b.Fatal(r.Fault)
			}
		}
	})
	b.Run("compiled-cached", func(b *testing.B) {
		cache := tcpu.NewCache(cfg, tcpu.DefaultCacheCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tpp.Ptr, tpp.Flags = 0, 0
			p := cache.Get(tpp)
			if p == nil {
				b.Fatal("cache refused program")
			}
			if r := p.Exec(tpp, view); r.Fault != nil {
				b.Fatal(r.Fault)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationAddressingMode compares stack against hop addressing
// for the same per-hop record size.
func BenchmarkAblationAddressingMode(b *testing.B) {
	_, sw := benchSwitch(b)
	view := sw.ViewForTesting(nil, 0)
	cfg := tcpu.Config{MaxInstructions: 16}
	qsize := uint16(mem.QueueBase + mem.QueueBytes)
	swID := uint16(mem.SwitchBase + mem.SwitchID)

	b.Run("stack", func(b *testing.B) {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: swID},
			{Op: core.OpPUSH, A: qsize},
		}, 14)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tpp.Ptr = 0
			if res := cfg.Exec(tpp, view); res.Fault != nil {
				b.Fatal(res.Fault)
			}
		}
	})
	b.Run("hop", func(b *testing.B) {
		tpp := core.NewTPP(core.AddrHop, []core.Instruction{
			{Op: core.OpLOAD, A: swID, B: 0},
			{Op: core.OpLOAD, A: qsize, B: 1},
		}, 14)
		tpp.HopLen = 8
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tpp.Ptr = 0
			if res := cfg.Exec(tpp, view); res.Fault != nil {
				b.Fatal(res.Fault)
			}
		}
	})
}

// BenchmarkAblationCSTOREContention measures the linearizable CSTORE
// path under concurrent writers hammering one switch word.
func BenchmarkAblationCSTOREContention(b *testing.B) {
	_, sw := benchSwitch(b)
	cfg := tcpu.Config{MaxInstructions: 16}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		view := sw.ViewForTesting(nil, 0)
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpCSTORE, A: uint16(mem.SRAMBase + 2), B: 0},
		}, 3)
		for pb.Next() {
			if res := cfg.Exec(tpp, view); res.Fault != nil {
				b.Fatal(res.Fault)
			}
		}
	})
}

// BenchmarkAblationInBandOverhead quantifies the goodput cost of
// instrumenting every data packet with the §2.1 telemetry TPP, the
// trade the paper's 20-byte overhead figure is about.
func BenchmarkAblationInBandOverhead(b *testing.B) {
	run := func(instrument bool) float64 {
		sim := netsim.New(1)
		n := topo.NewNetwork(sim)
		sw := n.AddSwitch(asic.Config{Ports: 4})
		h1, h2 := n.AddHost(), n.AddHost()
		h1.NIC.SetCapacity(1 << 16)
		n.LinkHost(h1, sw, topo.Mbps(10, 0))
		n.LinkHost(h2, sw, topo.Mbps(10, 0))
		n.PrimeL2(netsim.Millisecond)
		var payload uint64
		h2.HandleDefault(func(p *core.Packet) { payload += uint64(p.PayloadLen()) })
		// Offer more than the link can carry in the window, so the
		// measured goodput is limited by wire overhead, not demand.
		for i := 0; i < 6000; i++ {
			pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 958)
			if instrument {
				microburst.Instrument(pkt, 5)
			}
			h1.Send(pkt)
		}
		start := sim.Now()
		sim.RunUntil(sim.Now() + 3*netsim.Second)
		return float64(payload) / (sim.Now() - start).Seconds()
	}
	b.Run("plain", func(b *testing.B) {
		var g float64
		for i := 0; i < b.N; i++ {
			g = run(false)
		}
		b.ReportMetric(g*8/1e6, "goodput-Mbps")
	})
	b.Run("instrumented", func(b *testing.B) {
		var g float64
		for i := 0; i < b.N; i++ {
			g = run(true)
		}
		b.ReportMetric(g*8/1e6, "goodput-Mbps")
	})
}

// BenchmarkAblationAggregationVsRecords compares the §2.1 per-hop
// record probe against INT-style in-packet MAX aggregation: the
// aggregate needs one word of packet memory for any path length, at the
// cost of losing the per-hop breakdown.
func BenchmarkAblationAggregationVsRecords(b *testing.B) {
	_, sw := benchSwitch(b)
	view := sw.ViewForTesting(nil, 0)
	cfg := tcpu.Config{MaxInstructions: 16}
	qsize := uint16(mem.QueueBase + mem.QueueBytes)

	b.Run("per-hop-records", func(b *testing.B) {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: qsize},
		}, 7) // one word per hop, 7-hop budget
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tpp.Ptr = 0
			if res := cfg.Exec(tpp, view); res.Fault != nil {
				b.Fatal(res.Fault)
			}
		}
		b.ReportMetric(float64(tpp.WireLen()), "wire-bytes")
	})
	b.Run("max-aggregate", func(b *testing.B) {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpMAX, A: qsize, B: 0},
		}, 1) // one word total, any path length
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := cfg.Exec(tpp, view); res.Fault != nil {
				b.Fatal(res.Fault)
			}
		}
		b.ReportMetric(float64(tpp.WireLen()), "wire-bytes")
	})
}
