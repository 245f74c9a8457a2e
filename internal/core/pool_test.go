package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// freeLen counts the blocks on pl's free list.
func freeLen(pl *Pool) int {
	n := 0
	for b := pl.free; b != nil; b = b.next {
		n++
	}
	return n
}

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

// NewTPP is NewUDP plus a deep copy of the program in the block's own
// buffers: the network may execute the copy while the caller's program
// stays as it was, and the buffers serve the block's next program.
func TestPoolNewTPPCopiesProgram(t *testing.T) {
	var pool Pool
	prev := pool.Clone(poolFixture()) // leaves instruction and memory buffers in the block
	block, insPtr, memPtr := prev.block, &prev.TPP.Ins[0], &prev.TPP.Mem[0]
	prev.Recycle()

	prog := NewTPP(AddrStack, []Instruction{{Op: OpPUSH, A: 3}}, 2)
	prog.SetWord(1, 42)
	eth := Ethernet{Dst: MAC{1}, Src: MAC{2}, Type: EtherTypeTPP}
	ip := IPv4{TTL: 64, Proto: ProtoUDP, Src: 3, Dst: 4}
	udp := UDP{SrcPort: 5, DstPort: 6}
	got := pool.NewTPP(eth, ip, udp, prog)
	if got.block != block || !got.Pooled() || got.TPP != &block.tpp {
		t.Fatal("NewTPP did not draw the recycled block and carry the program in it")
	}
	if &got.TPP.Ins[0] != insPtr || &got.TPP.Mem[0] != memPtr {
		t.Error("NewTPP did not reuse the block's instruction and memory buffers")
	}
	if len(got.TPP.Ins) != 1 || got.TPP.Ins[0] != prog.Ins[0] || got.TPP.MemWords() != 2 || got.TPP.Word(1) != 42 ||
		got.TPP.Ptr != 0 || got.TPP.Version != TPPVersion || got.Eth != eth || *got.UDP != udp || len(got.Payload) != 0 {
		t.Fatalf("NewTPP built %+v carrying %+v, want the header fields and a copy of the program", got, got.TPP)
	}
	want := NewUDPPacket(eth, ip, udp)
	want.TPP = prog
	if string(got.Serialize()) != string(want.Serialize()) {
		t.Fatal("NewTPP packet differs on the wire from the same program attached by hand")
	}

	got.TPP.SetWord(0, 7) // what a hop's PUSH does
	got.TPP.Ptr = 4
	got.TPP.Tenant = 9 // what the NIC's seal does
	if prog.Word(0) != 0 || prog.Ptr != 0 || prog.Tenant != 0 {
		t.Fatal("executing the pooled copy wrote through to the caller's program")
	}
	got.Recycle()
	if st := pool.Stats(); st != (PoolStats{Issued: 2, Recycled: 2, Allocated: 1}) {
		t.Errorf("Stats() = %+v, want two draws of one block", st)
	}
}

// Every block goes back to the pool it was drawn from, whoever recycles
// it: two pools (two Sims in one process) never share one.
func TestPoolsShareNoBlock(t *testing.T) {
	var a, b Pool
	src := poolFixture()
	ca, cb := a.Clone(src), b.Clone(src)
	ca.Recycle()
	cb.Recycle()
	if freeLen(&a) != 1 || freeLen(&b) != 1 || a.free == b.free {
		t.Fatalf("free lists hold %d and %d blocks, want one each, distinct", freeLen(&a), freeLen(&b))
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

// Blocks carved from one slab are as independent as blocks allocated
// one by one: 40 draws span three slabs, each block keeps its own
// program and payload through a round of recycling and redrawing, no
// two live packets share a buffer, and Allocated counts blocks, not
// slabs.  Under pooldebug a write through a stale alias is still caught
// when its block sits next to a live one in the same slab.
func TestPoolSlabBlocksIndependent(t *testing.T) {
	var pool Pool
	eth := Ethernet{Type: EtherTypeTPP}
	ip := IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2}
	draw := func(id int) *Packet {
		prog := NewTPP(AddrStack, []Instruction{{Op: OpPUSH, A: uint16(id)}}, 2)
		prog.SetWord(0, uint32(id))
		p := pool.NewTPP(eth, ip, UDP{SrcPort: uint16(id)}, prog)
		p.Payload = append(p.Payload, byte(id), byte(id>>8))
		return p
	}
	holds := func(p *Packet, id int) bool {
		return p.TPP.Ins[0].A == uint16(id) && p.TPP.Word(0) == uint32(id) && p.UDP.SrcPort == uint16(id) &&
			len(p.Payload) == 2 && p.Payload[0] == byte(id) && p.Payload[1] == byte(id>>8)
	}

	const n = 40 // 16 + 16 + 8: three slabs
	live := make([]*Packet, n)
	for i := range live {
		live[i] = draw(i)
	}
	for i := 0; i < n; i += 2 {
		live[i].Recycle()
		live[i] = nil
	}
	for i := 0; i < n; i += 2 {
		live[i] = draw(n + i)
	}

	blocks := map[*pooledBlock]bool{}
	bufs := map[any]int{}
	for i, p := range live {
		id := i
		if i%2 == 0 {
			id = n + i
		}
		if !holds(p, id) {
			t.Fatalf("packet %d does not hold what was drawn into it: %+v carrying %+v", i, p, p.TPP)
		}
		if blocks[p.block] {
			t.Fatalf("packet %d shares its block with another live packet", i)
		}
		blocks[p.block] = true
		for _, b := range []any{&p.Payload[0], &p.TPP.Ins[0], &p.TPP.Mem[0], p.TPP, p.IP, p.UDP} {
			if j, ok := bufs[b]; ok {
				t.Fatalf("packets %d and %d share a buffer", j, i)
			}
			bufs[b] = i
		}
	}
	if st := pool.Stats(); st.Allocated != n || st.Issued != n+n/2 || st.Recycled != n/2 {
		t.Errorf("Stats() = %+v, want %d blocks allocated, %d draws, %d recycled", st, n, n+n/2, n/2)
	}
	for _, p := range live {
		p.Recycle()
	}

	if !PoolDebug {
		return
	}
	var fresh Pool
	stale := fresh.Clone(poolFixture())
	neighbour := &fresh.slab[0] // the next block of the same slab
	live0 := fresh.Clone(poolFixture())
	if live0.block != neighbour {
		t.Fatal("the second draw from a fresh pool is not the first block's slab neighbour")
	}
	alias := stale.Payload
	stale.Recycle()
	alias[0] = 'X' // the violation: writing after the death point
	live0.Payload[0] = 'Y'
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "clobbered after Recycle") {
				t.Errorf("drawing the clobbered block panicked with %q, want the canary's report", msg)
			}
		}()
		fresh.NewUDP(Ethernet{}, IPv4{}, UDP{})
	}()
	if live0.Payload[0] != 'Y' || live0.Payload[1] != 'o' {
		t.Error("the stale write or the canary check touched the live neighbour")
	}
	live0.Recycle()
}

// Buffers carved from one arena chunk are as independent as buffers
// allocated one by one.  A fresh pool draws eight probes and their
// echoes, so their payloads, memories and instruction sections sit back
// to back in shared chunks; filling any one of them to capacity, or
// appending past it, leaves every neighbour as it was, and under
// pooldebug recycling one block poisons its own buffers only while a
// write through a stale alias is still caught.
func TestPoolArenaCarvesAreDisjoint(t *testing.T) {
	var pool Pool
	eth := Ethernet{Type: EtherTypeTPP}
	ip := IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2}
	const n = 8
	var live []*Packet
	for i := range n {
		prog := NewTPP(AddrStack, []Instruction{{Op: OpPUSH, A: uint16(i)}, {Op: OpPUSH, A: uint16(i + 1)}}, 3)
		for w := range prog.MemWords() {
			prog.SetWord(w, uint32(i<<8|w))
		}
		probe := pool.NewTPP(eth, ip, UDP{SrcPort: uint16(i)}, prog)
		probe.GrowPayload(4)
		probe.Payload = append(probe.Payload, byte(i), 0, 0, 1)
		echo := pool.NewUDP(eth, ip, UDP{SrcPort: uint16(i)})
		echo.GrowPayload(probe.TPP.WireLen() + len(probe.Payload))
		echo.Payload = probe.TPP.AppendTo(echo.Payload)
		echo.Payload = append(echo.Payload, probe.Payload...)
		live = append(live, probe, echo)
	}

	// bufs lists every buffer a live packet owns, each to capacity.
	type buf struct {
		name  string
		bytes []byte
		ins   []Instruction
	}
	bufs := func(p *Packet) []buf {
		out := []buf{{name: "Payload", bytes: p.Payload[:cap(p.Payload)]}}
		if p.TPP != nil {
			out = append(out, buf{name: "Mem", bytes: p.TPP.Mem[:cap(p.TPP.Mem)]},
				buf{name: "Ins", ins: p.TPP.Ins[:cap(p.TPP.Ins)]})
		}
		return out
	}
	var starts []uintptr
	for _, p := range live {
		for _, b := range bufs(p) {
			if b.bytes != nil {
				starts = append(starts, uintptr(unsafe.Pointer(unsafe.SliceData(b.bytes))))
			}
		}
	}
	slices.Sort(starts)
	near := 0
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] <= 256 {
			near++
		}
	}
	if near < len(starts)/2 {
		t.Fatalf("only %d of %d byte buffers start near another: the draws did not share a chunk", near, len(starts))
	}

	snapshot := func() [][]string {
		out := make([][]string, len(live))
		for i, p := range live {
			if p == nil {
				continue
			}
			for _, b := range bufs(p) {
				out[i] = append(out[i], fmt.Sprint(b.bytes, b.ins))
			}
		}
		return out
	}
	unchanged := func(before [][]string, except int, what string) {
		t.Helper()
		after := snapshot()
		for i := range live {
			if i != except && live[i] != nil && !slices.Equal(before[i], after[i]) {
				t.Fatalf("%s changed packet %d's buffers", what, i)
			}
		}
	}

	// Filling each buffer to capacity stays inside its carve.
	for i, p := range live {
		before := snapshot()
		for _, b := range bufs(p) {
			for k := range b.bytes {
				b.bytes[k] = 0xee
			}
			for k := range b.ins {
				b.ins[k] = Instruction{Op: OpNOP, A: 0xeee, B: 0xeee}
			}
		}
		unchanged(before, i, fmt.Sprintf("filling packet %d to capacity", i))
	}

	// Appending past a carve's capacity moves the buffer and writes
	// nothing into the neighbour.
	for i, p := range live {
		before := snapshot()
		old := unsafe.SliceData(p.Payload)
		p.Payload = append(p.Payload[:cap(p.Payload)], 0xaa)
		if unsafe.SliceData(p.Payload) == old {
			t.Fatalf("appending past packet %d's payload capacity did not reallocate", i)
		}
		if p.TPP != nil {
			p.TPP.Mem = append(p.TPP.Mem[:cap(p.TPP.Mem)], 0xaa)
			p.TPP.Ins = append(p.TPP.Ins[:cap(p.TPP.Ins)], Instruction{Op: OpNOP})
		}
		unchanged(before, i, fmt.Sprintf("appending past packet %d's capacity", i))
	}
	for _, p := range live {
		p.Recycle()
	}

	if !PoolDebug {
		return
	}
	// A fresh set of neighbours, then one of them recycled.
	var fresh Pool
	live = live[:0]
	for i := range 4 {
		p := fresh.NewTPP(eth, ip, UDP{}, NewTPP(AddrStack, []Instruction{{Op: OpPUSH, A: uint16(i)}}, 2))
		p.GrowPayload(4)
		p.Payload = append(p.Payload, byte(i), 1, 2, 3)
		live = append(live, p)
	}
	const dead = 1
	before := snapshot()
	stale := bufs(live[dead])
	live[dead].Recycle()
	live[dead] = nil
	unchanged(before, dead, "recycling a neighbour")
	for _, b := range stale {
		for k, v := range b.bytes {
			if v != 0xdd { // pooldebug's poison byte
				t.Fatalf("recycled %s[%d] = %#x, want poison", b.name, k, v)
			}
		}
	}
	stale[0].bytes[0] = 'X' // the violation: writing after the death point
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "clobbered after Recycle") {
				t.Errorf("drawing the clobbered block panicked with %q, want the canary's report", msg)
			}
		}()
		fresh.NewUDP(Ethernet{}, IPv4{}, UDP{})
	}()
	unchanged(before, dead, "the stale write and the canary check")
	for _, p := range live {
		if p != nil {
			p.Recycle()
		}
	}
}

// A fresh pool's cold draws allocate per chunk, not per buffer: 16
// copies of RCP*'s 5-instruction, 140-byte collect program and 16 echo
// payloads of 176 bytes take one Pool, two 16-block slabs, one
// instruction chunk (80 of 128) and three byte chunks (2 240 + 2 816
// bytes in 2 KB chunks) — 7 allocations, where a buffer apiece and a
// free list that grew by append took 57.
func TestPoolFreshDrawsAllocs(t *testing.T) {
	if PoolDebug {
		t.Skip("pooldebug formats a call site at every Recycle")
	}
	prog := NewTPP(AddrStack, make([]Instruction, 5), 35)
	eth := Ethernet{Type: EtherTypeTPP}
	ip := IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2}
	var live [32]*Packet
	got := testing.AllocsPerRun(20, func() {
		pool := new(Pool)
		for i := range 16 {
			live[i] = pool.NewTPP(eth, ip, UDP{}, prog)
		}
		for i := 16; i < 32; i++ {
			live[i] = pool.NewUDP(eth, ip, UDP{})
			live[i].GrowPayload(176)
		}
		for i, p := range live {
			p.Recycle()
			live[i] = nil
		}
	})
	if got != 7 {
		t.Errorf("32 cold draws from a fresh pool allocate %v objects, want 7", got)
	}
}
