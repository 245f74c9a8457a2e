package asic_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// §4 sets TPPs against fixed-function features a switch would
// otherwise carry as dedicated logic: ECN marking and IP Record Route.
// The switch has neither; the tests below show the TPP doing each job.

// ecnThresholdBytes is the marking threshold a fixed-function ECN
// comparator on the congested egress below would be configured with.
const ecnThresholdBytes = 3000

// congested is one switch between h1 (100 Mb/s) and h2 (1 Mb/s), L2
// primed: a burst from h1 builds a queue on the egress toward h2.
func congested() (*netsim.Sim, *endhost.Host, *endhost.Host) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(1, 0)) // slow egress builds a queue
	n.PrimeL2(time1ms())
	return sim, h1, h2
}

// switchIDTrace records one switch id per hop, for up to hops hops.
func switchIDTrace(hops int) *core.TPP {
	return core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
	}, hops)
}

// TestECNMarking: what the ECN comparator marks — egress occupancy at
// or above a threshold — a probe reads as [Queue:QueueSize], in bytes
// rather than one bit: below the threshold on the idle egress, at or
// above it behind a burst.
func TestECNMarking(t *testing.T) {
	sim, h1, h2 := congested()
	prober := endhost.NewProber(h1)
	var idle, busy *core.TPP
	prober.Probe(h2.MAC, h2.IP, queueProbe(1), func(e *core.TPP) { idle = e.Clone() })
	sim.RunUntil(sim.Now() + netsim.Second)
	for i := 0; i < 20; i++ {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 986))
	}
	prober.Probe(h2.MAC, h2.IP, queueProbe(1), func(e *core.TPP) { busy = e.Clone() })
	sim.RunUntil(sim.Now() + netsim.Second)

	if idle == nil || busy == nil {
		t.Fatalf("echoes: idle %v, behind the burst %v", idle, busy)
	}
	if q := idle.Word(0); q >= ecnThresholdBytes {
		t.Errorf("idle egress read %d bytes, want < %d", q, ecnThresholdBytes)
	}
	if q := busy.Word(0); q < ecnThresholdBytes {
		t.Errorf("congested egress read %d bytes, want >= %d", q, ecnThresholdBytes)
	}
}

// TestECNIgnoresNonCapablePackets: the switch rewrites no TOS bit, ECN
// codepoints included, however long the egress queue.
func TestECNIgnoresNonCapablePackets(t *testing.T) {
	sim, h1, h2 := congested()
	var sent, got []uint8
	h2.HandleDefault(func(p *core.Packet) { got = append(got, p.IP.TOS) })
	for i := 0; i < 20; i++ {
		pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 986)
		pkt.IP.TOS = uint8(i * 53)
		sent = append(sent, pkt.IP.TOS)
		h1.Send(pkt)
	}
	sim.RunUntil(sim.Now() + netsim.Second)
	if len(got) != len(sent) {
		t.Fatalf("%d of %d packets arrived", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Errorf("packet %d: TOS %#02x arrived as %#02x", i, sent[i], got[i])
		}
	}
}

// TestRecordRouteStampsSwitchIDs: a PUSH [Switch:SwitchID] trace reads
// the hop ids in path order.
func TestRecordRouteStampsSwitchIDs(t *testing.T) {
	sim := netsim.New(1)
	n, src, dst, sws := topo.Line(sim, 3, topo.Mbps(100, 0), topo.Mbps(100, 0), nil, nil)
	n.PrimeL2(time1ms())

	var echoed *core.TPP
	endhost.NewProber(src).Probe(dst.MAC, dst.IP, switchIDTrace(len(sws)),
		func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)

	if echoed == nil {
		t.Fatal("trace echo never arrived")
	}
	if echoed.Flags&core.FlagError != 0 || echoed.Ptr != 4*uint16(len(sws)) {
		t.Fatalf("trace flags %#x, SP %d; want no fault and SP %d", echoed.Flags, echoed.Ptr, 4*len(sws))
	}
	for i, sw := range sws {
		if got := echoed.Word(i); got != sw.ID() {
			t.Fatalf("hop %d recorded %d, want %d", i, got, sw.ID())
		}
	}
}

// TestRecordRouteCapacityLimit: a trace sized for nine hops — the
// slots the 40-byte IP option space gives Record Route — crossing ten
// switches records the first nine and faults visibly at the tenth,
// where Record Route would truncate in silence.  Unlike the option, a
// TPP could have sized its packet memory for the whole path.
func TestRecordRouteCapacityLimit(t *testing.T) {
	const slots = 9
	sim := netsim.New(1)
	n, src, dst, sws := topo.Line(sim, 10, topo.Mbps(100, 0), topo.Mbps(100, 0), nil, nil)
	n.PrimeL2(5 * netsim.Millisecond)

	var echoed *core.TPP
	endhost.NewProber(src).Probe(dst.MAC, dst.IP, switchIDTrace(slots),
		func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)

	if echoed == nil {
		t.Fatal("trace echo never arrived")
	}
	if echoed.Flags&core.FlagError == 0 {
		t.Fatalf("a %d-slot trace over %d hops did not fault", slots, len(sws))
	}
	if echoed.Ptr != 4*slots {
		t.Fatalf("SP %d, want %d", echoed.Ptr, 4*slots)
	}
	for i := 0; i < slots; i++ {
		if got := echoed.Word(i); got != sws[i].ID() {
			t.Fatalf("hop %d recorded %d, want %d", i, got, sws[i].ID())
		}
	}
}
