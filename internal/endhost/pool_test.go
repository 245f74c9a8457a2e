package endhost

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/verify"
)

// star wires n hosts to one switch, the smallest fabric that floods.
func star(sim *netsim.Sim, n int) (*asic.Switch, []*Host) {
	const rate = 1e9
	sw := asic.New(sim, asic.Config{ID: 7, Ports: n})
	hosts := make([]*Host, n)
	for i := range hosts {
		h := NewHost(sim, core.MACFromUint64(uint64(i+1)), core.IPv4Addr(10, 0, 0, byte(i+1)))
		h.NIC.Attach(netsim.NewChannel(sim, rate, netsim.Microsecond, sw, i))
		sw.Wire(i, netsim.NewChannel(sim, rate, netsim.Microsecond, h, 0))
		hosts[i] = h
	}
	return sw, hosts
}

// A flood copy is a pool block.  Delivered to a host with nothing
// registered for it, it must go back to the pool — adopting it first
// (the old order: adopt, then demultiplex) loses the block for good and
// makes the next flood allocate a fresh one.
func TestUnhandledDeliveryReturnsToPool(t *testing.T) {
	sim := netsim.New(1)
	_, hosts := star(sim, 4)
	const floods = 10
	for i := 0; i < floods; i++ {
		hosts[0].Broadcast() // three egresses: two pooled copies and the original
		sim.RunUntil(sim.Now() + netsim.Millisecond)
	}
	st := sim.Pool().Stats()
	if st.Issued != 2*floods {
		t.Fatalf("pool issued %d blocks for %d floods over three egresses, want %d", st.Issued, floods, 2*floods)
	}
	if st.Adopted != 0 || st.Recycled != st.Issued {
		t.Errorf("unhandled deliveries: %+v, want every block recycled and none adopted", st)
	}
	if st.Allocated != 2 {
		t.Errorf("pool allocated %d blocks, want the 2 one flood has in flight", st.Allocated)
	}
	for i, h := range hosts[1:] {
		if h.Received != floods {
			t.Errorf("host %d Received = %d, want %d: recycling must not change the count", i+1, h.Received, floods)
		}
	}

	// The same deliveries with a retaining handler are adopted, and the
	// handler may keep them.
	var kept []*core.Packet
	hosts[1].HandleDefault(func(p *core.Packet) { kept = append(kept, p) })
	hosts[0].Broadcast()
	sim.RunUntil(sim.Now() + netsim.Millisecond)
	hosts[0].Broadcast()
	sim.RunUntil(sim.Now() + netsim.Millisecond)
	if len(kept) != 2 || kept[0] == kept[1] || kept[0].Pooled() || !kept[0].Eth.Dst.IsBroadcast() {
		t.Fatalf("retaining handler holds %d packets (same block reused under it, or still pooled)", len(kept))
	}
}

// An executed probe is recycled once its echo has been built from it.
// The echo is a pool block too: the retaining handler registered here
// adopts it, where a prober's sink would return it.
func TestEchoedProbeReturnsToPool(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	var echoes int
	a.Handle(EchoReplyPort, func(*core.Packet) { echoes++ })

	probe := a.NewPacketPooled(b.MAC, b.IP, 9, ProbeEchoPort, 0)
	probe.TPP = core.NewTPP(core.AddrStack, nil, 1)
	probe.Eth.Type = core.EtherTypeTPP
	a.Send(probe)
	sim.Run()
	if echoes != 1 || b.EchoesSent != 1 || b.Received != 0 {
		t.Fatalf("echoes=%d EchoesSent=%d Received=%d, want 1/1/0", echoes, b.EchoesSent, b.Received)
	}
	if st := sim.Pool().Stats(); st.Issued != 2 || st.Recycled != 1 || st.Adopted != 1 {
		t.Fatalf("pool after the echo: %+v, want the probe's block recycled and the echo's adopted", st)
	}
}

// The NIC's two refusals are death points: a pooled packet's block
// comes back, a NewPacket packet stays its holder's.
func TestNICDropRecyclesPooled(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	a.NIC.max = 1
	pool := sim.Pool()

	a.Send(a.NewPacketPooled(b.MAC, b.IP, 1, 2, 100)) // on the wire
	a.Send(a.NewPacketPooled(b.MAC, b.IP, 1, 2, 100)) // queued: the queue is full
	if a.Send(a.NewPacketPooled(b.MAC, b.IP, 1, 2, 100)) {
		t.Fatal("NIC accepted a packet into a full queue")
	}
	if st := pool.Stats(); a.NIC.Drops != 1 || st.Issued != 3 || st.Recycled != 1 {
		t.Fatalf("tail drop: Drops=%d pool %+v, want the dropped block recycled", a.NIC.Drops, st)
	}
	held := a.NewPacket(b.MAC, b.IP, 1, 2, 100)
	if a.Send(held) {
		t.Fatal("NIC accepted a packet into a full queue")
	}
	if pool.Stats().Recycled != 1 || held.WireLen() != 142 || held.UDP.DstPort != 2 {
		t.Fatal("tail drop touched a packet its sender still owns")
	}

	a.NIC.SetVerifier(&verify.Config{})
	bad := func(pkt *core.Packet) *core.Packet {
		pkt.TPP = core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
			{Op: core.OpPOP, A: uint16(mem.SwitchBase)}, // a write into read-only statistics
		}, 2)
		pkt.Eth.Type = core.EtherTypeTPP
		return pkt
	}
	if a.Send(bad(a.NewPacketPooled(b.MAC, b.IP, 1, 2, 0))) {
		t.Fatal("verifier accepted a TPP that writes switch statistics")
	}
	if st := pool.Stats(); a.NIC.Rejected != 1 || st.Issued != 4 || st.Recycled != 2 {
		t.Fatalf("rejection: Rejected=%d pool %+v, want the rejected block recycled", a.NIC.Rejected, st)
	}
	held = bad(a.NewPacket(b.MAC, b.IP, 1, 2, 0))
	if a.Send(held) {
		t.Fatal("verifier accepted a TPP that writes switch statistics")
	}
	if pool.Stats().Recycled != 2 || len(held.TPP.Ins) != 2 {
		t.Fatal("rejection touched a packet its sender still owns")
	}

	sim.Run()
	if st := pool.Stats(); st.Issued != st.Recycled+st.Adopted || b.Received != 2 {
		t.Fatalf("after the drain: pool %+v, peer received %d", st, b.Received)
	}
}

// NewPacketPooled is NewPacket in a pool block: same fields, same UIDs.
func TestNewPacketPooledMatchesNewPacket(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	c, _ := pair(netsim.New(1), 8_000_000) // a's twin, so both draw the same UID
	want := c.NewPacket(b.MAC, b.IP, 7, 8, 958)
	got := a.NewPacketPooled(b.MAC, b.IP, 7, 8, 958)
	if !got.Pooled() || got.Eth != want.Eth || *got.UDP != *want.UDP || got.PadLen != want.PadLen ||
		got.Meta != want.Meta || got.WireLen() != want.WireLen() ||
		string(got.Serialize()) != string(want.Serialize()) {
		t.Fatalf("NewPacketPooled built %+v, NewPacket %+v", got, want)
	}
	got.Recycle()
}

// NewProbePooled is NewPacket with the program attached, in a pool
// block: same fields, same UIDs, and a copy of the program, not the
// caller's.
func TestNewProbePooledMatchesNewPacket(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	c, _ := pair(netsim.New(1), 8_000_000) // a's twin, so both draw the same UID
	prog := switchIDProg(3)
	want := c.NewPacket(b.MAC, b.IP, EchoReplyPort, ProbeEchoPort, 0)
	want.Eth.Type, want.TPP = core.EtherTypeTPP, prog
	got := a.NewProbePooled(b.MAC, b.IP, EchoReplyPort, ProbeEchoPort, prog)
	if !got.Pooled() || got.TPP == prog || &got.TPP.Mem[0] == &prog.Mem[0] || &got.TPP.Ins[0] == &prog.Ins[0] {
		t.Fatal("NewProbePooled did not draw a pool block carrying its own copy of the program")
	}
	if got.Eth != want.Eth || *got.UDP != *want.UDP || got.Meta != want.Meta ||
		got.WireLen() != want.WireLen() || string(got.Serialize()) != string(want.Serialize()) {
		t.Fatalf("NewProbePooled built %+v, NewPacket with the program attached %+v", got, want)
	}
	got.Recycle()
}

// A sink borrows: its packet is back in the pool when it returns, and
// the next draw reuses the block.
func TestSinkReturnsPacket(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	var bytes int
	b.Sink(2, func(p *core.Packet) { bytes += p.PayloadLen() })
	for i := 0; i < 5; i++ {
		a.Send(a.NewPacketPooled(b.MAC, b.IP, 1, 2, 100))
		sim.Run()
	}
	if st := sim.Pool().Stats(); bytes != 500 || b.Received != 5 ||
		st != (core.PoolStats{Issued: 5, Recycled: 5, Allocated: 1}) {
		t.Fatalf("sink read %d bytes of %d packets, pool %+v; want 500 bytes, 5 packets, one block reused", bytes, b.Received, st)
	}
}
