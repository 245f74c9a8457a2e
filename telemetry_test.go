package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/microburst"
	"repro/internal/ndb"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// TestTelemetryEndToEnd drives a TPP-instrumented packet across a
// two-switch line with the telemetry subsystem enabled and checks the
// tentpole artifacts together: a reconstructable per-hop span journey,
// a metrics snapshot carrying queue-depth and TCPU-cycle histograms,
// and snapshot diffing across a traffic window.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 18)
	sim := netsim.New(1)
	link := topo.Mbps(1000, 10*netsim.Microsecond)
	n, src, dst, sws := topo.Line(sim, 2, link, link,
		topo.Uniform(asic.Config{Metrics: reg, Trace: tr}), tr)
	n.PrimeL2(5 * netsim.Millisecond)

	before := reg.Snapshot(int64(sim.Now()))

	// Background traffic plus one instrumented packet whose lifecycle
	// we reconstruct.
	const background = 50
	for i := 0; i < background; i++ {
		src.Send(src.NewPacket(dst.MAC, dst.IP, 7, 8, 200))
	}
	probe := src.NewPacket(dst.MAC, dst.IP, 7, 9, 64)
	microburst.Instrument(probe, 4)
	uid := probe.Meta.UID
	src.Send(probe)
	sim.RunUntil(sim.Now() + netsim.Second)

	after := reg.Snapshot(int64(sim.Now()))

	// The span journey reconstructs the per-hop path: two hops, in
	// switch order, time-ordered, with every pipeline stage present on
	// each switch and the links in between.
	journey := tr.Journey(uid)
	if len(journey) == 0 {
		t.Fatal("no span events recorded for the probe UID")
	}
	for i := 1; i < len(journey); i++ {
		if journey[i].At < journey[i-1].At {
			t.Fatalf("journey out of order at %d: %v after %v",
				i, journey[i].At, journey[i-1].At)
		}
	}
	hops := ndb.JourneyFromSpans(journey)
	if len(hops) != 2 {
		t.Fatalf("reconstructed %d hops, want 2: %+v", len(hops), hops)
	}
	if hops[0].SwitchID != sws[0].ID() || hops[1].SwitchID != sws[1].ID() {
		t.Fatalf("hop switches = %d,%d; want %d,%d",
			hops[0].SwitchID, hops[1].SwitchID, sws[0].ID(), sws[1].ID())
	}
	stageCount := map[obs.Stage]int{}
	for _, ev := range journey {
		stageCount[ev.Stage]++
	}
	for _, st := range []obs.Stage{obs.StageParser, obs.StageTCPU,
		obs.StageMemMgr, obs.StageEnqueue, obs.StageSched} {
		if stageCount[st] < 2 {
			t.Fatalf("stage %v seen %d times, want one per switch", st, stageCount[st])
		}
	}
	// src->sw1, sw1->sw2, sw2->dst: three serializations minimum.
	if stageCount[obs.StageLinkTx] < 3 || stageCount[obs.StageLinkRx] < 3 {
		t.Fatalf("link spans tx=%d rx=%d, want >=3 each",
			stageCount[obs.StageLinkTx], stageCount[obs.StageLinkRx])
	}

	// The snapshot carries populated queue-depth and TCPU-cycle
	// histograms.
	var queueDepth, tcpuCycles uint64
	for _, m := range after.Metrics {
		switch {
		case strings.HasSuffix(m.Name, "/queue_depth_bytes"):
			queueDepth += m.Count
		case strings.HasSuffix(m.Name, "/tcpu_cycles"):
			tcpuCycles += m.Count
		}
	}
	if queueDepth == 0 {
		t.Fatal("no queue_depth_bytes samples in snapshot")
	}
	if tcpuCycles == 0 {
		t.Fatal("no tcpu_cycles samples in snapshot")
	}

	// The two snapshots bracket the traffic window: every sent packet
	// crossed the first switch (echo traffic can only add to it).
	name := fmt.Sprintf("switch/%d/packets", sws[0].ID())
	p0, _ := before.Get(name)
	p1, ok := after.Get(name)
	if !ok {
		t.Fatal("packets counter missing from snapshot")
	}
	if d := p1.Value - p0.Value; d < background+1 {
		t.Fatalf("window shows %d packets at switch %d, want >= %d",
			d, sws[0].ID(), background+1)
	}
}

// TestTelemetryDisabledNoExtraAllocs pins the zero-cost contract: with
// no Metrics/Trace configured every obs handle is nil and the fabric
// (NIC -> switch -> NIC) never allocates.  The only allocations per
// send+drain cycle are the sender's two packet-construction blocks
// (the packet block and the TPP-less payload handling in NewPacket);
// the seed needed 20.
func TestTelemetryDisabledNoExtraAllocs(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	h1.NIC.SetCapacity(1 << 20)
	n.LinkHost(h1, sw, topo.Mbps(10_000, 0))
	n.LinkHost(h2, sw, topo.Mbps(10_000, 0))
	n.PrimeL2(netsim.Millisecond)

	allocs := testing.AllocsPerRun(200, func() {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 58))
		sim.RunUntil(sim.Now() + netsim.Millisecond)
	})
	if allocs > 2 {
		t.Fatalf("disabled telemetry path: %.1f allocs per packet, want <= 2 (packet construction only)", allocs)
	}
	if h2.Received == 0 {
		t.Fatal("nothing forwarded")
	}
}

// TestTelemetryEnabledPriceAsCounts pins the price of watching as the
// two counts that repeat exactly.  With Metrics and Trace on, a TPP
// packet crossing a 5-switch line allocates what it allocates with
// both off (the sender's packet and its TPP) — span recording, counter
// and histogram updates add none — and a delivered TPP packet on an
// n-switch line records exactly 6n + 2(n+1) span events: parser,
// lookup, TCPU, memory manager, enqueue and scheduler at each switch,
// serialization and delivery on each of the n+1 links.  The log holds
// those events in at most 24 bytes each: replayed into a fresh log, a
// 5-hop line's events grow the heap by no more than that per event, so
// the stored record cannot silently grow back to 32 bytes, or to a
// SpanEvent's 40.
func TestTelemetryEnabledPriceAsCounts(t *testing.T) {
	type line struct {
		sim      *netsim.Sim
		src, dst *endhost.Host
		hops     int
	}
	build := func(hops int, cfg asic.Config) *line {
		sim := netsim.New(1)
		link := topo.Mbps(10_000, 0)
		n, src, dst, _ := topo.Line(sim, hops, link, link, topo.Uniform(cfg), cfg.Trace)
		n.PrimeL2(netsim.Millisecond)
		return &line{sim: sim, src: src, dst: dst, hops: hops}
	}
	send := func(l *line) {
		pkt := l.src.NewPacket(l.dst.MAC, l.dst.IP, 1, 2, 58)
		microburst.Instrument(pkt, l.hops)
		l.src.Send(pkt)
		l.sim.RunUntil(l.sim.Now() + netsim.Millisecond)
	}

	off := build(5, asic.Config{})
	disabled := testing.AllocsPerRun(200, func() { send(off) })
	// One chunk holds the whole log and is born while priming, so a
	// chunk's first-touch allocation cannot hide in the average.
	on := build(5, asic.Config{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(1024)})
	enabled := testing.AllocsPerRun(200, func() { send(on) })
	if disabled != 2 || enabled != disabled {
		t.Fatalf("5-hop TPP packet: %.1f allocs with telemetry off, %.1f with Metrics+Trace on; want 2 and 2",
			disabled, enabled)
	}
	if off.dst.Received == 0 || on.dst.Received != off.dst.Received {
		t.Fatalf("delivered %d packets with telemetry off, %d with it on", off.dst.Received, on.dst.Received)
	}

	var recorded []obs.SpanEvent
	for _, hops := range []int{1, 2, 5} {
		tr := obs.NewTracer(1 << 12)
		l := build(hops, asic.Config{Trace: tr})
		const packets = 20
		before, delivered := tr.Total(), l.dst.Received
		for i := 0; i < packets; i++ {
			send(l)
		}
		if l.dst.Received-delivered != packets {
			t.Fatalf("%d hops: delivered %d of %d", hops, l.dst.Received-delivered, packets)
		}
		want := uint64(packets * (6*hops + 2*(hops+1)))
		if got := tr.Total() - before; got != want {
			t.Fatalf("%d hops: %d spans for %d packets, want %d (6n + 2(n+1) each)", hops, got, packets, want)
		}
		if hops == 5 {
			recorded = tr.Events()
		}
	}

	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const events = 1 << 14
	fresh := obs.NewTracer(1 << 20)
	fresh.Record(recorded[0])
	before := live()
	for i := 1; i <= events; i++ {
		fresh.Record(recorded[i%len(recorded)])
	}
	if perEvent := (int64(live()) - int64(before)) / events; perEvent > 24 {
		t.Fatalf("the span log holds %d bytes per event, want <= 24", perEvent)
	}
	runtime.KeepAlive(fresh)
}
