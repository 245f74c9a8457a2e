package endhost

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// pair wires two hosts back to back (no switch): enough to exercise
// NIC queueing, demultiplexing, echoes and the prober.
func pair(sim *netsim.Sim, rate int64) (*Host, *Host) {
	a := NewHost(sim, core.MACFromUint64(1), core.IPv4Addr(10, 0, 0, 1))
	b := NewHost(sim, core.MACFromUint64(2), core.IPv4Addr(10, 0, 0, 2))
	a.NIC.Attach(netsim.NewChannel(sim, rate, netsim.Microsecond, b, 0))
	b.NIC.Attach(netsim.NewChannel(sim, rate, netsim.Microsecond, a, 0))
	return a, b
}

func TestNICQueueAndDrops(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	a.NIC.max = 4

	for i := 0; i < 10; i++ {
		a.Send(a.NewPacket(b.MAC, b.IP, 1, 2, 1000))
	}
	// One packet transmits immediately; 4 queue; 5 drop.
	if a.NIC.Drops != 5 {
		t.Fatalf("drops = %d", a.NIC.Drops)
	}
	sim.Run()
	if b.Received != 5 {
		t.Fatalf("delivered = %d", b.Received)
	}
	if a.NIC.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
	if a.NIC.Sent != 5 {
		t.Fatalf("sent = %d", a.NIC.Sent)
	}
}

type nopReceiver struct{}

func (nopReceiver) Receive(*core.Packet, int) {}

// A sender that keeps its NIC backlogged must not grow the transmit
// queue's backing array with the number of packets sent.
func TestNICQueueBackingBoundedByOccupancy(t *testing.T) {
	sim := netsim.New(1)
	n := NewNIC()
	ch := netsim.NewChannel(sim, 100e9, 0, nopReceiver{}, 0)
	n.Attach(ch)
	pkt := &core.Packet{Eth: core.Ethernet{Type: core.EtherTypeIPv4}, PadLen: 50}
	n.Send(pkt) // on the wire
	n.Send(pkt) // waiting: the backlog never clears below one
	for i := 0; i < 1_000_000; i++ {
		if !n.Send(pkt) {
			t.Fatalf("send %d refused", i)
		}
		sim.RunUntil(sim.Now() + ch.SerializationDelay(pkt.WireLen()))
		if n.QueueLen() != 1 {
			t.Fatalf("send %d: backlog %d, want 1", i, n.QueueLen())
		}
	}
	// The ring keeps its backing array to itself; reflect reads its length.
	if backing := reflect.ValueOf(&n.queue).Elem().FieldByName("buf").Len(); backing > 8 {
		t.Fatalf("transmit queue backing array is %d entries after 1e6 packets", backing)
	}
}

func TestHostDemux(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)

	var got7, gotDefault int
	b.Handle(7, func(p *core.Packet) { got7++ })
	b.HandleDefault(func(p *core.Packet) { gotDefault++ })

	a.Send(a.NewPacket(b.MAC, b.IP, 1, 7, 10))
	a.Send(a.NewPacket(b.MAC, b.IP, 1, 8, 10))
	sim.Run()
	if got7 != 1 || gotDefault != 1 {
		t.Fatalf("demux: port7=%d default=%d", got7, gotDefault)
	}
	if b.Received != 2 {
		t.Fatalf("Received = %d", b.Received)
	}
}

func TestEchoCarriesExecutedState(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)

	// Hand-craft an "executed" TPP (no switch between the hosts, so
	// we pre-fill the state the network would have written).
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase)},
	}, 2)
	tpp.SetWord(0, 4242)
	tpp.Ptr = 4

	prober := NewProber(a)
	var echoed *core.TPP
	ok := prober.Probe(b.MAC, b.IP, tpp, func(e *core.TPP) { echoed = e.Clone() })
	if !ok {
		t.Fatal("probe send failed")
	}
	sim.Run()

	if echoed == nil {
		t.Fatal("no echo")
	}
	if echoed.Word(0) != 4242 || echoed.Ptr != 4 {
		t.Fatalf("echo lost executed state: %+v", echoed)
	}
	if b.EchoesSent != 1 {
		t.Fatalf("EchoesSent = %d", b.EchoesSent)
	}
	if prober.Matched != 1 || prober.Outstanding() != 0 {
		t.Fatalf("prober state: matched=%d outstanding=%d", prober.Matched, prober.Outstanding())
	}
	// Probes do not count as received data.
	if b.Received != 0 {
		t.Fatalf("probe counted as data: %d", b.Received)
	}
}

func TestProbeGroupCompletion(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	prober := NewProber(a)

	tpps := []*core.TPP{
		core.NewTPP(core.AddrStack, nil, 1),
		core.NewTPP(core.AddrStack, nil, 2),
		core.NewTPP(core.AddrStack, nil, 3),
	}
	var got []*core.TPP
	prober.ProbeGroup(b.MAC, b.IP, tpps, func(g []*core.TPP) { got = g })
	sim.Run()
	if got == nil {
		t.Fatal("group never completed")
	}
	for i, e := range got {
		if e.MemWords() != i+1 {
			t.Fatalf("group order broken: slot %d has %d words", i, e.MemWords())
		}
	}
}

func TestProberForget(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	prober := NewProber(a)
	called := false
	prober.Probe(b.MAC, b.IP, core.NewTPP(core.AddrStack, nil, 1), func(*core.TPP) { called = true })
	prober.Forget()
	sim.Run()
	if called {
		t.Fatal("forgotten probe callback ran")
	}
	if prober.Outstanding() != 0 {
		t.Fatal("Forget left pending probes")
	}
}

func TestMalformedEchoCounted(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	prober := NewProber(a)
	// A bogus packet straight to the echo-reply port.
	pkt := b.NewPacket(a.MAC, a.IP, ProbeEchoPort, EchoReplyPort, 0)
	pkt.Payload = []byte{1, 2, 3}
	b.Send(pkt)
	sim.Run()
	if prober.Malformed != 1 {
		t.Fatalf("Malformed = %d", prober.Malformed)
	}
}

func TestCollectProgram(t *testing.T) {
	stats := []mem.Addr{mem.SwitchBase, mem.PortBase, mem.QueueBase}
	tpp, err := CollectProgram(stats, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpp.Ins) != 3 || tpp.MemWords() != 15 {
		t.Fatalf("program: %d ins, %d words", len(tpp.Ins), tpp.MemWords())
	}
	for i, a := range stats {
		if tpp.Ins[i].Op != core.OpPUSH || tpp.Ins[i].A != uint16(a) {
			t.Fatalf("ins %d = %+v", i, tpp.Ins[i])
		}
	}
	if _, err := CollectProgram(make([]mem.Addr, 6), 5, 5); err == nil {
		t.Fatal("over-limit program accepted")
	}
}

func TestSplitCollect(t *testing.T) {
	stats := make([]mem.Addr, 12)
	tpps, err := SplitCollect(stats, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpps) != 3 {
		t.Fatalf("split into %d", len(tpps))
	}
	if len(tpps[0].Ins) != 5 || len(tpps[2].Ins) != 2 {
		t.Fatalf("split sizes: %d, %d, %d",
			len(tpps[0].Ins), len(tpps[1].Ins), len(tpps[2].Ins))
	}
	if _, err := SplitCollect(stats, 3, 0); err == nil {
		t.Fatal("zero limit accepted")
	}
}

func TestBroadcastPrimesPath(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	if !a.Broadcast() {
		t.Fatal("broadcast send failed")
	}
	sim.Run()
	if b.Received != 1 {
		t.Fatalf("broadcast delivered %d", b.Received)
	}
}
