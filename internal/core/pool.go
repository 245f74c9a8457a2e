package core

import "slices"

// The packet pool: who owns a packet block, and when it comes back.
//
// A Pool is a free list of packet blocks that belongs to one
// simulation (netsim.Sim.Pool()).  One goroutine drives a Sim and
// everything wired to it (DESIGN §6), so the list is a plain LIFO stack
// threaded through the blocks, with no locking; its hit rate is a
// function of the seed and nothing else, and two Sims in one process
// share no block.
//
// Where a block's memory comes from.  Blocks are carved from slabs of
// slabBlocks, and every buffer a block owns — payload, IP options, its
// TPP's instructions and packet memory — is carved from one of the
// pool's two arenas, a byte chunk and an instruction chunk.  A carve is
// a three-index slice, so its capacity is exactly its own: appending
// past it reallocates like any slice, and pooldebug's poison, which
// fills a recycled block's buffers to capacity, never reaches a
// neighbour's.  A block keeps its buffers across incarnations and
// carves a new one only when an incarnation outgrows the old.  The
// garbage collector frees a slab or a chunk only when nothing in it is
// referenced, so an adopted block pins its slab and the chunks its
// buffers came from.  Allocated still counts blocks, not slabs or
// chunks.
//
// Who may draw.  The fabric draws with Pool.Clone when it must copy a
// packet it forwards (a flood egress, a stripped TPP).  A sender draws
// with Pool.NewUDP (endhost.Host.NewPacketPooled) when it builds a
// packet it will hand to the NIC and never look at again: a paced data
// packet, a probe's echo.  A prober or controller draws with
// Pool.NewTPP (endhost.Host.NewProbePooled) when it sends a program it
// keeps — a probe, a retry, an RCP* update: the block carries its own
// copy of the program, which the network then executes and mutates,
// while the sender's program stays as it was for the next send.
//
// A block's life ends in exactly one of three ways:
//   - a fabric death point recycles it: queue tail drop, TTL expiry,
//     blackhole, TCAM drop rule, reboot flush, link loss or link down,
//     a NIC's tail drop or verifier rejection;
//   - the receiving host returns it: after a Sink handler has read it,
//     after an executed probe has been serialised into its echo, or
//     when no handler wants it;
//   - the receiving host adopts it (Handle, HandleDefault): the packet
//     then behaves like a freshly allocated one, its holder may keep it
//     and its buffers indefinitely, and the block never returns.
//
// Retaining is the default and the pooled draw and the sink are opt-in
// because a packet's author is not known at the places it dies: Recycle
// on a packet that was never drawn from a pool is a no-op, so every
// death point can call it on whatever it holds, and a sender that built
// its packet with NewPacket may keep a reference across the send (a
// retry keeps the probe, a test compares what arrived with what left)
// without the fabric ever reusing it under that reference.  Only code
// that can promise "sent and forgotten" / "read and returned" says so,
// by name.
//
// Rules, enforced by the poollife analyzer (tools/analyzers)
// statically and by the pooldebug build tag dynamically:
//   - Recycle only at a death point: the caller holds the only
//     reference and nothing touches the packet afterwards.  Handing a
//     pooled packet to Send is the same promise.
//   - A pooled packet stored into anything that outlives the current
//     event (a field, map, slice, channel, captured closure) must be
//     adopted first, or it may be recycled under the referent.
//   - A shallow copy of a pooled packet aliases the original's buffers;
//     the original must then be abandoned to the garbage collector,
//     never recycled.
//
// Issued == Recycled + Adopted once a simulation has drained is the
// conservation law the counters exist for; Allocated (blocks this pool
// ever created) is bounded by the packets in flight at once plus the
// adoptions, not by the packets sent.

// pooledBlock co-allocates a pooled packet with its optional layer
// headers.  The block — not the packet — is what the pool stores: the
// layer structs and their buffers stay attached to the block even while
// an incarnation of the packet carries fewer layers, so a block never
// re-allocates a header or a buffer it once had.
type pooledBlock struct {
	pkt Packet
	tpp TPP
	ip  IPv4
	udp UDP

	dbg  blockDebug   // pooldebug state; zero-sized in release builds, so not last
	pool *Pool        // where Recycle returns the block
	next *pooledBlock // the free list's link while the block sits in the pool
}

// Pool is a free list of packet blocks.  The zero value is an empty
// pool ready for use; a Pool must not be copied after its first draw
// (its blocks point back at it) and is not safe for concurrent use.
type Pool struct {
	free  *pooledBlock  // LIFO: the block recycled last is drawn first
	slab  []pooledBlock // blocks allocated but never yet issued
	bytes []byte        // uncarved tail of the byte arena
	ins   []Instruction // uncarved tail of the instruction arena
	stats PoolStats
}

// The pool's allocation units.  grow carves blocks from slabs of
// slabBlocks, and each arena chunk holds a slab's worth of buffers.
// Bytes: the largest buffer a block takes in the experiments is an
// RCP* echo's payload (12 header + 5 instructions × 4 + 140 bytes of
// memory + the 4-byte cookie = 176), most take a 4-byte cookie or rate
// header, so 128 bytes a block makes a 2 KB chunk.  Instructions: no
// program the experiments send has more than five, so 8 a block makes
// a 128-instruction chunk (768 bytes).  A request larger than a chunk
// gets a chunk of its own size; the tail of the chunk it replaces is
// never carved.
const (
	slabBlocks = 16
	chunkBytes = slabBlocks * 128
	chunkIns   = slabBlocks * 8
)

// PoolStats are a pool's always-on counts, cumulative since its first
// draw.
type PoolStats struct {
	Issued    uint64 // draws (Clone, NewUDP, NewTPP)
	Recycled  uint64 // blocks returned to the free list
	Adopted   uint64 // blocks handed to a holder for good
	Allocated uint64 // draws the free list could not serve (blocks, not slabs)
}

// Stats returns the pool's counts.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// get issues a block: the most recently recycled one, or a new one when
// the list is empty.
func (pl *Pool) get() *pooledBlock {
	pl.stats.Issued++
	b := pl.free
	if b == nil {
		return pl.grow()
	}
	pl.free, b.next = b.next, nil
	b.checkCanary()
	return b
}

// grow serves a miss with the next never-issued block, carving a fresh
// slab of slabBlocks when the last one is used up: one allocation per
// slabBlocks packets in flight at once.  It stays out of line so the
// draws around it stay escape-free (tools/allocgate).
//
//go:noinline
func (pl *Pool) grow() *pooledBlock {
	pl.stats.Allocated++
	if len(pl.slab) == 0 {
		pl.slab = make([]pooledBlock, slabBlocks)
	}
	b := &pl.slab[0]
	pl.slab = pl.slab[1:]
	b.pool = pl
	return b
}

// byteBuf returns buf emptied when it holds n bytes, or an empty carve
// of capacity n from the byte arena when it does not.
func (pl *Pool) byteBuf(buf []byte, n int) []byte {
	if cap(buf) < n {
		return pl.carveBytes(n)
	}
	return buf[:0]
}

// carveBytes cuts an empty buffer of capacity n from the byte arena,
// starting a new chunk when the tail is too short.  Like grow it stays
// out of line so the draws around it stay escape-free.
//
//go:noinline
func (pl *Pool) carveBytes(n int) []byte {
	if len(pl.bytes) < n {
		pl.bytes = make([]byte, max(chunkBytes, n))
	}
	b := pl.bytes[:0:n]
	pl.bytes = pl.bytes[n:]
	return b
}

// carveIns is carveBytes for the instruction arena.
//
//go:noinline
func (pl *Pool) carveIns(n int) []Instruction {
	if len(pl.ins) < n {
		pl.ins = make([]Instruction, max(chunkIns, n))
	}
	b := pl.ins[:0:n]
	pl.ins = pl.ins[n:]
	return b
}

// copyTPP makes t, a block's TPP, a deep copy of src, first carving
// whichever of its buffers is too small for src's from the arenas.
func (pl *Pool) copyTPP(t, src *TPP) {
	if cap(t.Ins) < len(src.Ins) {
		t.Ins = pl.carveIns(len(src.Ins))
	}
	t.Mem = pl.byteBuf(t.Mem, len(src.Mem))
	t.CopyFrom(src)
}

// Clone deep-copies p like Packet.Clone, but into a block of this pool,
// reusing the block's buffers.  The copy must end in Recycle or Adopt.
//
//alloc:free
func (pl *Pool) Clone(p *Packet) *Packet {
	p.checkLive("Pool.Clone")
	b := pl.get()
	c := &b.pkt
	// Keep the block's buffers so their capacity is reused by the copy
	// below, whichever layers this incarnation carries.
	opts, payload := b.ip.Options, c.Payload
	*c = *p
	c.pooled = true
	c.block = b
	c.Payload = append(pl.byteBuf(payload, len(p.Payload)), p.Payload...)
	if p.TPP != nil {
		pl.copyTPP(&b.tpp, p.TPP)
		c.TPP = &b.tpp
	}
	if p.IP != nil {
		ip := &b.ip
		*ip = *p.IP
		ip.Options = append(pl.byteBuf(opts, len(p.IP.Options)), p.IP.Options...)
		c.IP = ip
	}
	if p.UDP != nil {
		u := &b.udp
		*u = *p.UDP
		c.UDP = u
	}
	c.markIssued()
	return c
}

// NewUDP builds the Eth+IP+UDP data packet NewUDPPacket builds, in a
// block of this pool.  The payload is empty but keeps the block's
// buffer, so appending a header word to it allocates nothing once
// GrowPayload has made room.  The packet must end in Recycle or Adopt;
// a sender hands it to Send and forgets it.
//
//alloc:free
func (pl *Pool) NewUDP(eth Ethernet, ip IPv4, udp UDP) *Packet {
	b := pl.get()
	c := &b.pkt
	opts, payload := b.ip.Options, c.Payload
	*c = Packet{Eth: eth, IP: &b.ip, UDP: &b.udp, Payload: payload[:0], pooled: true, block: b}
	b.ip = ip
	b.ip.Options = append(pl.byteBuf(opts, len(ip.Options)), ip.Options...)
	b.udp = udp
	c.markIssued()
	return c
}

// NewTPP builds the packet NewUDP builds, carrying a copy of *t in the
// block's own TPP: the instructions and packet memory go into the
// block's retained buffers (carved from the arenas when t outgrows
// them), never aliased, so the network may execute
// and mutate the copy while t stays the caller's, unchanged.  (Sharing
// t.Ins would not do even though the network never writes instructions:
// a recycled block's buffers are the pool's, and pooldebug poisons
// them.)  The packet must end in Recycle or Adopt.
//
//alloc:free
func (pl *Pool) NewTPP(eth Ethernet, ip IPv4, udp UDP, t *TPP) *Packet {
	c := pl.NewUDP(eth, ip, udp)
	pl.copyTPP(&c.block.tpp, t)
	c.TPP = &c.block.tpp
	return c
}

// GrowPayload makes room for n more payload bytes, like slices.Grow,
// so the appends that follow allocate nothing.  A pooled packet's new
// buffer is carved from its pool's byte arena and becomes the block's
// for later incarnations; any other packet's comes from slices.Grow.
func (p *Packet) GrowPayload(n int) {
	p.checkLive("GrowPayload")
	if cap(p.Payload)-len(p.Payload) >= n {
		return
	}
	if !p.pooled {
		p.Payload = slices.Grow(p.Payload, n)
		return
	}
	p.Payload = append(p.block.pool.carveBytes(len(p.Payload)+n), p.Payload...)
}

// compatPool serves ClonePooled.  Nothing under internal/ or cmd/ may
// use it (make lint): a simulation's packets come from its Sim's pool.
var compatPool Pool

// ClonePooled is Pool.Clone on one process-wide pool, kept because
// bench/tppbench's core.clone_recycle_ns probe calls it and a change
// that claims a gain may not edit the benchmark; it goes with that
// probe in the next benchmark change.
func (p *Packet) ClonePooled() *Packet { return compatPool.Clone(p) }

// Pooled reports whether the packet is owned by a packet pool (drawn
// and neither recycled nor adopted).
//
//api:harness where the ownership tests see a packet's pool state
func (p *Packet) Pooled() bool { return p.pooled }

// Adopt transfers ownership of a pooled packet to the caller: the
// packet will never return to its pool, so the caller may retain it
// and its buffers indefinitely.  Adopting a non-pooled packet is a
// no-op.
func (p *Packet) Adopt() {
	p.checkLive("Adopt")
	if p.pooled {
		p.pooled = false
		p.block.pool.stats.Adopted++
	}
}

// Recycle returns a pooled packet's block to the pool it was drawn
// from.  The caller must hold the only reference; the packet and its
// TPP/IP/UDP/Payload buffers are reused by a later draw.  Recycling a
// non-pooled packet is a no-op, so death points call it
// unconditionally.
//
//alloc:free
func (p *Packet) Recycle() {
	p.checkRecycle()
	if p.pooled {
		p.release()
	}
}

// release puts a pooled packet's block back on its pool's free list.
// It stays out of line: Recycle is inlined at every death point of the
// forwarding path, where it should cost a test and, rarely, a call —
// not the free list's push (and pooldebug's poisoning) in the middle of
// a hot function.
//
//go:noinline
//alloc:free
func (p *Packet) release() {
	p.pooled = false
	// A shallow struct copy inherits the pooled flag but is not the
	// block's resident packet; recycling it would hand the pool buffers
	// the copy still aliases.  Release builds abandon the block to the
	// garbage collector instead (pooldebug panics in checkRecycle).
	b := p.block
	if p != &b.pkt {
		return
	}
	p.poisonAndRetire()
	pl := b.pool
	pl.stats.Recycled++
	b.next, pl.free = pl.free, b
}
