package core

import (
	"testing"
)

func poolFixture() *Packet {
	return &Packet{
		Eth: Ethernet{Type: EtherTypeTPP},
		TPP: &TPP{
			Version: 1, Mode: AddrStack, HopLen: 12, Ptr: 4,
			Ins: []Instruction{{Op: OpLOAD, A: 1, B: 0}, {Op: OpSTORE, A: 2, B: 1}},
			Mem: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		},
		IP:      &IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2, Options: []byte{7, 4, 0, 0}},
		UDP:     &UDP{SrcPort: 9, DstPort: 10},
		Payload: []byte("cookie"),
	}
}

// The pool slot is a single co-allocated block: recycling a clone and
// drawing again must reuse the same block and the same layer buffers,
// even when an intermediate incarnation carried fewer layers than the
// one before it (the slot keeps custody of headers the packet dropped).
func TestPoolBlockAndBufferReuse(t *testing.T) {
	var pool Pool
	src := poolFixture()

	c := pool.Clone(src)
	if !c.Pooled() {
		t.Fatal("Pool.Clone copy not marked pooled")
	}
	if c.block == nil || c != &c.block.pkt {
		t.Fatal("Pool.Clone copy is not its block's resident packet")
	}
	block := c.block
	insPtr := &c.TPP.Ins[0]
	c.Recycle()
	if c.Pooled() {
		t.Fatal("Recycle left the packet marked pooled")
	}

	// A TPP-less incarnation must not lose the slot's TPP buffers...
	plain := &Packet{Eth: Ethernet{Type: EtherTypeIPv4}, Payload: []byte("x")}
	c2 := pool.Clone(plain)
	if c2.block != block {
		t.Fatal("pool did not hand back the block recycled last")
	}
	if c2.TPP != nil {
		t.Fatal("TPP-less clone carries a TPP")
	}
	c2.Recycle()

	// ...so a later TPP-carrying incarnation reuses them.
	c3 := pool.Clone(src)
	if c3.block != block {
		t.Fatal("pool did not hand back the block recycled last")
	}
	if &c3.TPP.Ins[0] != insPtr {
		t.Error("slot did not reuse its instruction buffer across a TPP-less incarnation")
	}
	c3.Recycle()
	if got, want := pool.Stats(), (PoolStats{Issued: 3, Recycled: 3, Allocated: 1}); got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
}

// Pool.Clone must deep-copy: mutating the clone's buffers must not be
// visible through the source, whatever the slot held before.
func TestPoolCloneIsDeep(t *testing.T) {
	var pool Pool
	src := poolFixture()
	c := pool.Clone(src)

	c.TPP.Ins[0] = Instruction{Op: OpNOP}
	c.TPP.Mem[0] = 0xff
	c.IP.Options[0] = 0xff
	c.Payload[0] = 'X'
	c.UDP.SrcPort = 4242

	if src.TPP.Ins[0].Op != OpLOAD || src.TPP.Mem[0] != 1 ||
		src.IP.Options[0] != 7 || src.Payload[0] != 'c' || src.UDP.SrcPort != 9 {
		t.Fatal("mutating the pooled clone leaked into the source packet")
	}
	c.Recycle()
}

// Recycling a shallow copy is the forbidden aliasing case: release
// builds must degrade it to abandoning the slot (no panic, and the
// slot must NOT be handed out again under the copy), mirroring how
// Recycle on a non-pooled packet is a safe no-op.
func TestPoolShallowCopyRecycleAbandons(t *testing.T) {
	if PoolDebug {
		t.Skip("pooldebug escalates this violation to a panic; see pooldebug_test.go")
	}
	var pool Pool
	src := poolFixture()
	c := pool.Clone(src)
	sc := *c // shallow: aliases c's buffers
	sc.Recycle()
	if sc.Pooled() {
		t.Fatal("Recycle left the shallow copy marked pooled")
	}
	if pool.Stats().Recycled != 0 || pool.Clone(src).block == c.block {
		t.Fatal("recycling a shallow copy put the aliased block back on the free list")
	}
	// The resident packet is still live and untouched.
	if c.WireLen() != src.WireLen() {
		t.Fatal("abandoning a shallow copy corrupted the resident packet")
	}
}

// Adopt severs the packet from the pool: a later Recycle is a no-op
// and the adopted packet's buffers stay valid indefinitely.
func TestPoolAdoptSevers(t *testing.T) {
	var pool Pool
	src := poolFixture()
	c := pool.Clone(src)
	c.Adopt()
	if c.Pooled() {
		t.Fatal("Adopt left the packet marked pooled")
	}
	c.Recycle() // must be a no-op
	if c.Payload[0] != 'c' || c.TPP.Ins[0].Op != OpLOAD {
		t.Fatal("Recycle after Adopt touched the packet")
	}
	if got, want := pool.Stats(), (PoolStats{Issued: 1, Adopted: 1, Allocated: 1}); got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
}

// Clone (the heap variant) of a pooled packet must produce a fully
// independent packet: no pool back pointer, so recycling the original
// cannot invalidate the clone.
func TestPoolHeapCloneIndependent(t *testing.T) {
	var pool Pool
	src := poolFixture()
	c := pool.Clone(src)
	h := c.Clone()
	if h.Pooled() || h.block != nil {
		t.Fatal("heap Clone of a pooled packet kept pool ownership state")
	}
	c.Recycle()
	if h.WireLen() == 0 || h.Payload[0] != 'c' {
		t.Fatal("heap clone invalidated by recycling its source")
	}
}

// NewUDP builds what NewUDPPacket builds, in a recycled block whose
// payload and option buffers it keeps — and nothing of the block's
// previous incarnation shows through.
func TestPoolNewUDPMatchesNewUDPPacket(t *testing.T) {
	var pool Pool
	prev := pool.Clone(poolFixture()) // leaves a TPP, options and a payload in the block
	block, payloadPtr := prev.block, &prev.Payload[0]
	prev.Recycle()

	eth := Ethernet{Dst: MAC{1}, Src: MAC{2}, Type: EtherTypeIPv4}
	ip := IPv4{TTL: 64, Proto: ProtoUDP, Src: 3, Dst: 4}
	udp := UDP{SrcPort: 5, DstPort: 6}
	got, want := pool.NewUDP(eth, ip, udp), NewUDPPacket(eth, ip, udp)
	if got.block != block || !got.Pooled() {
		t.Fatal("NewUDP did not draw the recycled block")
	}
	if got.Eth != want.Eth || got.IP.Src != 3 || got.IP.Dst != 4 || got.IP.TTL != 64 || len(got.IP.Options) != 0 ||
		*got.UDP != *want.UDP || got.TPP != nil || len(got.Payload) != 0 || got.PadLen != 0 || got.Meta != (Metadata{}) {
		t.Fatalf("NewUDP built %+v (ip %+v, udp %+v), want the fields of NewUDPPacket", got, got.IP, got.UDP)
	}
	if got.WireLen() != want.WireLen() || string(got.Serialize()) != string(want.Serialize()) {
		t.Fatal("NewUDP packet differs from NewUDPPacket's on the wire")
	}
	got.Payload = append(got.Payload, 0xde, 0xad, 0xbe, 0xef)
	if &got.Payload[0] != payloadPtr {
		t.Error("appending a header word did not reuse the block's payload buffer")
	}
	got.Recycle()
}

// Every block goes back to the pool it was drawn from, whoever recycles
// it: two pools (two Sims in one process) never share one.
func TestPoolsShareNoBlock(t *testing.T) {
	var a, b Pool
	src := poolFixture()
	ca, cb := a.Clone(src), b.Clone(src)
	ca.Recycle()
	cb.Recycle()
	if len(a.free) != 1 || len(b.free) != 1 || a.free[0] == b.free[0] {
		t.Fatalf("free lists hold %d and %d blocks, want one each, distinct", len(a.free), len(b.free))
	}
	if ca2 := a.Clone(src); ca2.block != ca.block {
		t.Error("pool a did not get its own block back")
	}
	for _, pl := range []*Pool{&a, &b} {
		if s := pl.Stats(); s.Allocated != 1 || s.Recycled != 1 {
			t.Errorf("Stats() = %+v, want one block allocated and one recycled per pool", s)
		}
	}
}

// ClonePooled, kept for bench/tppbench, is Pool.Clone on a pool of its
// own.
func TestClonePooledCompatibility(t *testing.T) {
	before := compatPool.Stats()
	c := poolFixture().ClonePooled()
	if !c.Pooled() || c.block.pool != &compatPool {
		t.Fatal("ClonePooled did not draw from the compatibility pool")
	}
	c.Recycle()
	if after := compatPool.Stats(); after.Issued != before.Issued+1 || after.Recycled != before.Recycled+1 {
		t.Errorf("compatibility pool stats %+v -> %+v, want one draw and one recycle", before, after)
	}
}
