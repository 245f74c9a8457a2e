package asic_test

import (
	"strings"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/l3"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcam"
	"repro/internal/topo"
)

var (
	edge     = topo.Mbps(80, 10*netsim.Microsecond)
	backbone = topo.Mbps(8, 10*netsim.Microsecond)
)

func queueProbe(hops int) *core.TPP {
	return core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, hops)
}

func TestL2FloodThenUnicast(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2, h3 := n.AddHost(), n.AddHost(), n.AddHost()
	for _, h := range []*endhost.Host{h1, h2, h3} {
		n.LinkHost(h, sw, edge)
	}

	// First frame from h1 to h2: unknown destination, floods to both
	// h2 and h3.
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1000, 2000, 100))
	sim.RunUntil(10 * netsim.Millisecond)
	if h2.Received != 1 || h3.Received != 1 {
		t.Fatalf("flood: h2=%d h3=%d", h2.Received, h3.Received)
	}

	// h2 replies: h1's location is now learned, so only h1 sees it;
	// and h2's location is learned from the reply.
	h2.Send(h2.NewPacket(h1.MAC, h1.IP, 2000, 1000, 100))
	sim.RunUntil(20 * netsim.Millisecond)
	if h1.Received != 1 || h3.Received != 1 {
		t.Fatalf("reply leaked: h1=%d h3=%d", h1.Received, h3.Received)
	}

	// Now h1 to h2 goes unicast.
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1000, 2000, 100))
	sim.RunUntil(30 * netsim.Millisecond)
	if h2.Received != 2 || h3.Received != 1 {
		t.Fatalf("unicast: h2=%d h3=%d", h2.Received, h3.Received)
	}
}

func TestFigure1QueueWalk(t *testing.T) {
	// The Figure 1 scenario: a PUSH [Queue:QueueSize] TPP walks three
	// switches, recording one queue snapshot per hop; SP advances
	// 0 -> 4 -> 8 -> 12.
	sim := netsim.New(1)
	n, src, dst, _ := topo.Line(sim, 3, edge, backbone, nil, nil)
	n.PrimeL2(5 * netsim.Millisecond)

	prober := endhost.NewProber(src)
	var echoed *core.TPP
	prober.Probe(dst.MAC, dst.IP, queueProbe(3), func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(50 * netsim.Millisecond)

	if echoed == nil {
		t.Fatal("probe echo never arrived")
	}
	if echoed.Ptr != 12 {
		t.Fatalf("final SP = %d, want 12", echoed.Ptr)
	}
	if echoed.Flags&core.FlagError != 0 {
		t.Fatal("probe faulted")
	}
	// Idle network: all three snapshots are zero.
	for i := 0; i < 3; i++ {
		if q := echoed.Word(i); q != 0 {
			t.Errorf("hop %d queue = %d on an idle network", i, q)
		}
	}
}

func TestFigure1SeesCongestion(t *testing.T) {
	// Same walk behind a 20-packet burst: the first switch's egress
	// queue (the fast-to-slow transition) must show a backlog; the
	// rest of the path stays nearly empty.
	sim := netsim.New(1)
	n, src, dst, _ := topo.Line(sim, 3, edge, backbone, nil, nil)
	n.PrimeL2(5 * netsim.Millisecond)

	before := dst.Received
	for i := 0; i < 20; i++ {
		src.Send(src.NewPacket(dst.MAC, dst.IP, 5000, 5001, 986)) // 1028B frames
	}
	prober := endhost.NewProber(src)
	var echoed *core.TPP
	prober.Probe(dst.MAC, dst.IP, queueProbe(3), func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(200 * netsim.Millisecond)

	if echoed == nil {
		t.Fatal("probe echo never arrived")
	}
	hop0 := echoed.Word(0)
	if hop0 < 5_000 {
		t.Fatalf("bottleneck queue snapshot = %d bytes, expected a backlog", hop0)
	}
	if h2 := echoed.Word(2); h2 > 2_000 {
		t.Fatalf("last hop queue = %d, expected nearly empty", h2)
	}
	if dst.Received-before != 20 {
		t.Fatalf("burst delivery: %d", dst.Received-before)
	}
}

func TestSPAdvancesPerHopInFlood(t *testing.T) {
	// A TPP flooded to two hosts executes independently per copy.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2, h3 := n.AddHost(), n.AddHost(), n.AddHost()
	for _, h := range []*endhost.Host{h1, h2, h3} {
		n.LinkHost(h, sw, edge)
	}
	var got []*core.TPP
	record := func(p *core.Packet) {
		if p.TPP != nil {
			got = append(got, p.TPP)
		}
	}
	h2.HandleDefault(record)
	h3.HandleDefault(record)

	tpp := queueProbe(2)
	h1.Send(&core.Packet{
		Eth: core.Ethernet{Dst: core.MACFromUint64(0xDEAD), Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP: tpp,
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h1.IP, Dst: core.IPv4Addr(10, 9, 9, 9)},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	})
	sim.RunUntil(10 * netsim.Millisecond)
	if len(got) != 2 {
		t.Fatalf("flooded TPP copies received: %d", len(got))
	}
	for _, e := range got {
		if e.Ptr != 4 {
			t.Fatalf("copy SP = %d, want 4", e.Ptr)
		}
	}
	if sw.TPPsExecuted() != 2 {
		t.Fatalf("TPPsExecuted = %d, want one per copy", sw.TPPsExecuted())
	}
	// The original TPP the host still holds must be untouched.
	if tpp.Ptr != 4 && tpp.Ptr != 0 {
		t.Fatalf("unexpected original SP %d", tpp.Ptr)
	}
}

func TestUntrustedPortStripsTPP(t *testing.T) {
	// §4: edge switches strip TPPs from untrusted ports; the
	// encapsulated payload still flows.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	p1 := n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())
	sw.Port(p1).SetTrusted(false)

	var sawTPP, sawPlain int
	h2.HandleDefault(func(p *core.Packet) {
		if p.TPP != nil {
			sawTPP++
		} else {
			sawPlain++
		}
	})

	h1.Send(&core.Packet{
		Eth:     core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP:     queueProbe(2),
		IP:      &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h1.IP, Dst: h2.IP},
		UDP:     &core.UDP{SrcPort: 1, DstPort: 9},
		Payload: []byte("data"),
	})
	sim.RunUntil(20 * netsim.Millisecond)

	if sawTPP != 0 {
		t.Fatal("TPP crossed an untrusted port")
	}
	if sawPlain != 1 {
		t.Fatalf("encapsulated payload lost: %d", sawPlain)
	}
	if sw.TPPsStripped() != 1 {
		t.Fatalf("TPPsStripped = %d", sw.TPPsStripped())
	}
	if sw.TPPsExecuted() != 0 {
		t.Fatal("stripped TPP still executed")
	}
}

func time1ms() netsim.Time { return netsim.Millisecond }

func TestBareTPPFromUntrustedPortVanishes(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	p1 := n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())
	sw.Port(p1).SetTrusted(false)

	h1.Send(&core.Packet{
		Eth: core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP: queueProbe(1),
	})
	before := h2.Received
	sim.RunUntil(20 * netsim.Millisecond)
	if h2.Received != before {
		t.Fatal("bare TPP leaked through untrusted port")
	}
}

func TestTCAMForwardingSetsMetadata(t *testing.T) {
	// §2.3: a TPP reads the matched flow entry's id and version.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge) // port 0
	p2 := n.LinkHost(h2, sw, edge)

	v, m := tcam.DstIPRule(h2.IP)
	id := sw.TCAM().Insert(10, v, m, tcam.Action{OutPort: p2})

	prog := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedID)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedVer)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketInputPort)},
	}, 4)

	prober := endhost.NewProber(h1)
	var echoed *core.TPP
	prober.Probe(h2.MAC, h2.IP, prog, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(20 * netsim.Millisecond)

	if echoed == nil {
		t.Fatal("no echo")
	}
	if echoed.Word(0) != sw.ID() {
		t.Errorf("switch id = %d", echoed.Word(0))
	}
	if echoed.Word(1) != id {
		t.Errorf("matched entry = %d, want %d", echoed.Word(1), id)
	}
	if echoed.Word(2) != 1 {
		t.Errorf("entry version = %d, want 1", echoed.Word(2))
	}
	if echoed.Word(3) != 0 {
		t.Errorf("input port = %d, want 0", echoed.Word(3))
	}
}

func TestTCAMDropRule(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	v, m := tcam.DstIPRule(h2.IP)
	sw.TCAM().Insert(100, v, m, tcam.Action{Drop: true})
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 10))
	before := h2.Received
	sim.RunUntil(20 * netsim.Millisecond)
	if h2.Received != before {
		t.Fatal("drop rule ignored")
	}
}

func TestL3RoutingAndTTL(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	p2 := n.LinkHost(h2, sw, edge)

	if err := sw.L3().Insert(h2.IP, 32, l3.Route{OutPort: p2}); err != nil {
		t.Fatal(err)
	}

	pkt := h1.NewPacket(core.MACFromUint64(0xBEEF), h2.IP, 1, 2, 10)
	var gotTTL uint8
	h2.HandleDefault(func(p *core.Packet) { gotTTL = p.IP.TTL })
	h1.Send(pkt)
	sim.RunUntil(10 * netsim.Millisecond)
	if gotTTL != 63 {
		t.Fatalf("TTL after one L3 hop = %d, want 63", gotTTL)
	}

	// TTL 1 dies at the router.
	dead := h1.NewPacket(core.MACFromUint64(0xBEEF), h2.IP, 1, 2, 10)
	dead.IP.TTL = 1
	before := h2.Received
	h1.Send(dead)
	sim.RunUntil(20 * netsim.Millisecond)
	if h2.Received != before {
		t.Fatal("TTL-expired packet forwarded")
	}
}

func TestViewCoversTable2(t *testing.T) {
	// Every statistic named in Table 2's namespaces must be readable
	// through the unified memory map.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)
	sim.RunUntil(time1ms())

	view := sw.ViewForTesting(nil, 0)
	for _, s := range mem.Symbols() {
		if _, err := view.Load(s.Addr); err != nil {
			t.Errorf("Load(%s) failed: %v", s.Name, err)
		}
	}
	// Absolute window mirrors the relative namespace.
	rel, _ := view.Load(mem.PortBase + mem.PortCapacity)
	abs, _ := view.Load(mem.PortAbs(0, mem.PortCapacity))
	if rel != abs || rel != uint32(edge.RateBps/8) {
		t.Errorf("capacity: rel=%d abs=%d want %d", rel, abs, edge.RateBps/8)
	}
	// SRAM round-trips.
	if err := view.Store(mem.SRAMBase+9, 1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := view.Load(mem.SRAMBase + 9); v != 1234 {
		t.Fatal("SRAM store lost")
	}
	// Statistics are read-only.
	if err := view.Store(mem.SwitchBase+mem.SwitchID, 9); err == nil {
		t.Fatal("stored over the switch id")
	} else if !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Unmapped addresses fault.
	if _, err := view.Load(mem.SwitchBase + 0xF0); err == nil {
		t.Fatal("unmapped switch word readable")
	}
	// Port scratch words are writable and context-relative.
	if err := view.Store(mem.PortBase+mem.PortScratchBase, 777); err != nil {
		t.Fatal(err)
	}
	if sw.Port(0).Scratch(0) != 777 {
		t.Fatal("scratch store lost")
	}
	// Out-of-range absolute port faults.
	if _, err := view.Load(mem.PortAbs(10, 0)); err == nil {
		t.Fatal("absolute window read beyond port count")
	}
}

func TestClockAndHopLatency(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	prog := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchClockLo)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketHopLatency)},
	}, 2)
	prober := endhost.NewProber(h1)
	var echoed *core.TPP
	sentAt := sim.Now()
	prober.Probe(h2.MAC, h2.IP, prog, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sentAt + 20*netsim.Millisecond)
	if echoed == nil {
		t.Fatal("no echo")
	}
	clock := netsim.Time(echoed.Word(0))
	if clock <= sentAt || clock > sim.Now() {
		t.Fatalf("dataplane clock %v outside (%v, %v]", clock, sentAt, sim.Now())
	}
	// Hop latency is at least the pipeline latency (500ns default).
	if lat := echoed.Word(1); lat < 500 {
		t.Fatalf("hop latency = %dns", lat)
	}
}

func TestQueueByteConservationEndToEnd(t *testing.T) {
	// Overload a port and check the port-level invariant:
	// enqueued = transmitted + resident (drops never enter).
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, QueueCapBytes: 5_000})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	p2 := n.LinkHost(h2, sw, topo.Mbps(1, 0))
	n.PrimeL2(time1ms())
	before := h2.Received

	for i := 0; i < 100; i++ {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 986))
	}
	sim.RunUntil(sim.Now() + 50*netsim.Millisecond)

	port := sw.Port(p2)
	q := port.Queue()
	if q.DropPkts == 0 {
		t.Fatal("overload produced no drops")
	}
	if q.EnqBytes != q.DeqBytes+uint64(q.Bytes()) {
		t.Fatalf("conservation: enq=%d deq=%d resident=%d",
			q.EnqBytes, q.DeqBytes, q.Bytes())
	}
	// Drain completely (the housekeeping ticker keeps the event queue
	// alive forever, so bounded runs are required).
	sim.RunUntil(sim.Now() + 2*netsim.Second)
	if q.Bytes() != 0 || port.QueueBytes() != 0 {
		t.Fatal("queue did not drain")
	}
	if h2.Received-before != uint64(100)-q.DropPkts {
		t.Fatalf("delivered %d, dropped %d of 100", h2.Received-before, q.DropPkts)
	}
}

func TestUtilizationMeters(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	p2 := n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	// 1 Mb/s: one 1250-byte frame per 10ms statistics window, so the
	// EWMA sees a steady 125000 B/s.
	stop := sim.Every(sim.Now(), 10*netsim.Millisecond, func() {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 1208))
	})
	_ = stop
	sim.RunUntil(sim.Now() + 2*netsim.Second)

	view := sw.ViewForTesting(nil, p2)
	rx, _ := view.Load(mem.PortBase + mem.PortRXUtil)
	tx, _ := view.Load(mem.PortBase + mem.PortTXUtil)
	if rx < 100_000 || rx > 150_000 {
		t.Fatalf("RX utilization = %d B/s, want ~125000", rx)
	}
	if tx < 100_000 || tx > 150_000 {
		t.Fatalf("TX utilization = %d B/s, want ~125000", tx)
	}
}

// Every egress port has one FIFO: the TOS bits select no queue, so
// frames leave in arrival order whatever they are marked.
func TestStrictPriorityQueues(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(1, 0)) // slow egress: queueing
	n.PrimeL2(time1ms())

	var order []uint16
	h2.HandleDefault(func(p *core.Packet) { order = append(order, p.UDP.SrcPort) })

	// Ten frames marked TOS 0xE0, then one TOS 0 frame that a
	// priority scheduler would let overtake them.
	for i := 0; i < 10; i++ {
		pkt := h1.NewPacket(h2.MAC, h2.IP, uint16(i), 2, 500)
		pkt.IP.TOS = 0xE0
		h1.Send(pkt)
	}
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 10, 2, 500))
	sim.RunUntil(sim.Now() + netsim.Second)

	if len(order) != 11 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, src := range order {
		if src != uint16(i) {
			t.Fatalf("frames left out of arrival order: %v", order)
		}
	}
}

func TestMirrorHook(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	var mirrored int
	sw.SetMirror(func(pkt *core.Packet, in, out int) { mirrored++ })
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 10))
	sim.RunUntil(sim.Now() + 10*netsim.Millisecond)
	if mirrored != 1 {
		t.Fatalf("mirror saw %d packets", mirrored)
	}
	if sw.PacketsSwitched() < 3 { // 2 broadcasts + 1 data
		t.Fatalf("PacketsSwitched = %d", sw.PacketsSwitched())
	}
}

func TestCondStoreThroughView(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)

	v := sw.ViewForTesting(nil, 0).(interface {
		CondStore(mem.Addr, uint32, uint32) (uint32, error)
	})
	a := mem.SRAMBase + 3
	old, err := v.CondStore(a, 0, 42)
	if err != nil || old != 0 {
		t.Fatalf("first CondStore: old=%d err=%v", old, err)
	}
	old, err = v.CondStore(a, 0, 99)
	if err != nil || old != 42 {
		t.Fatalf("second CondStore: old=%d err=%v", old, err)
	}
	if sw.SRAM(3) != 42 {
		t.Fatalf("SRAM holds %d", sw.SRAM(3))
	}
	if _, err := v.CondStore(mem.SwitchBase, 0, 1); err == nil {
		t.Fatal("CondStore to read-only address succeeded")
	}
}

func TestProgramTooLongFaultsButForwards(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4}) // default 5-instruction limit
	_ = sw
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	ins := make([]core.Instruction, 6)
	for i := range ins {
		ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase)}
	}
	prog := core.NewTPP(core.AddrStack, ins, 6)
	prober := endhost.NewProber(h1)
	var echoed *core.TPP
	prober.Probe(h2.MAC, h2.IP, prog, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 20*netsim.Millisecond)
	if echoed == nil {
		t.Fatal("over-long TPP was not forwarded")
	}
	if echoed.Flags&core.FlagError == 0 {
		t.Fatal("over-long TPP did not fault")
	}
}

func TestMultiPacketTPPGroup(t *testing.T) {
	// Eight statistics exceed the 5-instruction limit; SplitCollect
	// spreads them across two probes and the group completes.
	sim := netsim.New(1)
	n, src, dst, _ := topo.Line(sim, 2, edge, backbone, nil, nil)
	n.PrimeL2(time1ms())

	stats := []mem.Addr{
		mem.SwitchBase + mem.SwitchID,
		mem.PortBase + mem.PortQueueSize,
		mem.PortBase + mem.PortRXUtil,
		mem.PortBase + mem.PortTXUtil,
		mem.PortBase + mem.PortCapacity,
		mem.QueueBase + mem.QueueBytes,
		mem.PacketBase + mem.PacketInputPort,
		mem.PacketBase + mem.PacketOutputPort,
	}
	tpps, err := endhost.SplitCollect(stats, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpps) != 2 {
		t.Fatalf("split into %d TPPs", len(tpps))
	}
	prober := endhost.NewProber(src)
	var group []*core.TPP
	prober.ProbeGroup(dst.MAC, dst.IP, tpps, func(g []*core.TPP) { group = g })
	sim.RunUntil(sim.Now() + 30*netsim.Millisecond)
	if group == nil {
		t.Fatal("group incomplete")
	}
	// First TPP: 5 stats x 2 hops; switch id of hop 0 is switch 1.
	if got := group[0].Word(0); got != 1 {
		t.Fatalf("hop 0 switch id = %d", got)
	}
	if group[0].Ptr != 40 || group[1].Ptr != 24 {
		t.Fatalf("SPs = %d, %d", group[0].Ptr, group[1].Ptr)
	}
}

func TestAltRoutesMetadata(t *testing.T) {
	// Table 2: "alternate routes for a packet" — two rules covering
	// the same destination make AltRoutes read 2.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	p2 := n.LinkHost(h2, sw, edge)

	v, m := tcam.DstIPRule(h2.IP)
	sw.TCAM().Insert(10, v, m, tcam.Action{OutPort: p2})
	sw.TCAM().Insert(5, v, m, tcam.Action{OutPort: p2}) // backup path

	prog := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketAltRoutes)},
	}, 1)
	prober := endhost.NewProber(h1)
	var echoed *core.TPP
	prober.Probe(h2.MAC, h2.IP, prog, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + 20*netsim.Millisecond)
	if echoed == nil {
		t.Fatal("no echo")
	}
	if got := echoed.Word(0); got != 2 {
		t.Fatalf("AlternateRoutes = %d, want 2", got)
	}
}

func TestMAXAggregationAcrossPath(t *testing.T) {
	// INT-style in-packet aggregation: MAX [Queue:QueueSize],
	// [Packet:0] keeps the worst queue along the path in a single
	// word of packet memory, regardless of path length — the
	// aggregation alternative to one PUSH record per hop.
	sim := netsim.New(1)
	n, src, dst, _ := topo.Line(sim, 3, edge, backbone, nil, nil)
	n.PrimeL2(5 * netsim.Millisecond)

	// Congest hop 1 with a burst; the other hops stay empty.
	for i := 0; i < 20; i++ {
		src.Send(src.NewPacket(dst.MAC, dst.IP, 5000, 5001, 986))
	}

	maxProg := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpMAX, A: uint16(mem.QueueBase + mem.QueueBytes), B: 0},
	}, 1)
	pushProg := queueProbe(3)

	prober := endhost.NewProber(src)
	var maxEcho, pushEcho *core.TPP
	prober.Probe(dst.MAC, dst.IP, maxProg, func(e *core.TPP) { maxEcho = e.Clone() })
	prober.Probe(dst.MAC, dst.IP, pushProg, func(e *core.TPP) { pushEcho = e.Clone() })
	sim.RunUntil(sim.Now() + 200*netsim.Millisecond)

	if maxEcho == nil || pushEcho == nil {
		t.Fatal("echo lost")
	}
	// The MAX program's single word equals the max of the PUSH
	// program's per-hop records (both probes sampled back to back, so
	// the snapshots agree up to the probes' own wire length).
	var want uint32
	for i := 0; i < 3; i++ {
		if q := pushEcho.Word(i); q > want {
			want = q
		}
	}
	got := maxEcho.Word(0)
	if got == 0 || want == 0 {
		t.Fatal("no congestion observed")
	}
	diff := int64(got) - int64(want)
	if diff < -2100 || diff > 2100 { // within two frames of each other
		t.Fatalf("MAX aggregate %d vs per-hop max %d", got, want)
	}
	// And the aggregated probe needs 1 word of memory vs 3.
	if maxEcho.MemWords() != 1 || pushEcho.MemWords() != 3 {
		t.Fatalf("memory: %d vs %d words", maxEcho.MemWords(), pushEcho.MemWords())
	}
}

// Building a switch allocates per kind, not per port: the ports, with
// their queues and meters inside, are carved from one array sized once,
// and with telemetry disabled no metric name is formatted (obs/doc.go:
// disabled telemetry costs nothing).  Every port still gets a queue of
// its own.
func TestSwitchBuildCostIndependentOfPorts(t *testing.T) {
	build := func(ports int) float64 {
		return testing.AllocsPerRun(20, func() {
			asic.New(netsim.New(1), asic.Config{Ports: ports})
		})
	}
	if few, many := build(4), build(32); few != many {
		t.Errorf("building a switch allocates %v objects with 4 ports and %v with 32, want the same", few, many)
	}

	sw := asic.New(netsim.New(1), asic.Config{Ports: 32})
	seen := map[*asic.Queue]bool{}
	for i := 0; i < sw.Ports(); i++ {
		p := sw.Port(i)
		if p.ID() != i {
			t.Fatalf("port %d: id %d", i, p.ID())
		}
		if seen[p.Queue()] {
			t.Fatalf("port %d's queue is shared with another port", i)
		}
		seen[p.Queue()] = true
	}
}
