package asic_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func TestECNMarking(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, ECNThresholdBytes: 3000})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(1, 0)) // slow egress builds a queue
	n.PrimeL2(time1ms())

	var marked, unmarked int
	h2.HandleDefault(func(p *core.Packet) {
		if p.IP.TOS&core.ECNCE == core.ECNCE {
			marked++
		} else {
			unmarked++
		}
	})
	for i := 0; i < 20; i++ {
		pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 986)
		pkt.IP.TOS |= core.ECNCapable
		h1.Send(pkt)
	}
	sim.RunUntil(sim.Now() + netsim.Second)

	// Early packets see an empty queue (unmarked); later ones see the
	// backlog and get CE.
	if marked == 0 || unmarked == 0 {
		t.Fatalf("marking did not track the queue: marked=%d unmarked=%d", marked, unmarked)
	}
}

func TestECNIgnoresNonCapablePackets(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, ECNThresholdBytes: 1})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(1, 0))
	n.PrimeL2(time1ms())

	var badMarks int
	h2.HandleDefault(func(p *core.Packet) {
		if p.IP.TOS&core.ECNCE == core.ECNCE {
			badMarks++
		}
	})
	for i := 0; i < 10; i++ {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 986)) // not ECN-capable
	}
	sim.RunUntil(sim.Now() + netsim.Second)
	if badMarks != 0 {
		t.Fatalf("non-capable packets marked: %d", badMarks)
	}
}

func TestRecordRouteStampsSwitchIDs(t *testing.T) {
	sim := netsim.New(1)
	cfg := asic.Config{RecordRoute: true}
	n, src, dst, sws := topo.Line(sim, 3, topo.Mbps(100, 0), topo.Mbps(100, 0), topo.Uniform(cfg), nil)
	n.PrimeL2(time1ms())

	var got []uint32
	dst.HandleDefault(func(p *core.Packet) {
		got = core.RecordRouteAddrs(p.IP.Options)
	})
	pkt := src.NewPacket(dst.MAC, dst.IP, 1, 2, 100)
	pkt.IP.Options = core.NewRecordRouteOption(core.MaxRecordRouteSlots)
	src.Send(pkt)
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)

	if len(got) != 3 {
		t.Fatalf("recorded %d hops: %v", len(got), got)
	}
	for i, sw := range sws {
		if got[i] != sw.ID() {
			t.Fatalf("hop %d recorded %d, want %d", i, got[i], sw.ID())
		}
	}
}

func TestRecordRouteCapacityLimit(t *testing.T) {
	// A 9-slot option cannot trace a 10-hop path — the generality gap
	// §4 contrasts with TPP packet memory.
	sim := netsim.New(1)
	cfg := asic.Config{RecordRoute: true}
	n, src, dst, _ := topo.Line(sim, 10, topo.Mbps(100, 0), topo.Mbps(100, 0), topo.Uniform(cfg), nil)
	n.PrimeL2(5 * netsim.Millisecond)

	var got []uint32
	dst.HandleDefault(func(p *core.Packet) {
		got = core.RecordRouteAddrs(p.IP.Options)
	})
	pkt := src.NewPacket(dst.MAC, dst.IP, 1, 2, 100)
	pkt.IP.Options = core.NewRecordRouteOption(core.MaxRecordRouteSlots)
	src.Send(pkt)
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)

	if len(got) != core.MaxRecordRouteSlots {
		t.Fatalf("recorded %d hops, option caps at %d", len(got), core.MaxRecordRouteSlots)
	}
}
