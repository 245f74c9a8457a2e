package poollife

import "repro/internal/core"

// Negative cases: the legal lifecycle shapes fabric code actually
// uses.  None of these may produce a finding.

// The canonical forward path: clone, use, recycle at the death point.
func cloneForwardRecycle(src *Packet) int {
	c := src.ClonePooled()
	n := c.WireLen()
	c.Recycle()
	return n
}

// Early-exit recycle: the recycling branch leaves the function, so the
// uses after the if are only reachable with a live packet.
func recycleThenReturn(src *Packet, dead bool) int {
	c := src.ClonePooled()
	if dead {
		c.Recycle()
		return 0
	}
	n := c.WireLen()
	c.Recycle()
	return n
}

// Adopt severs pool ownership; retaining afterwards is the sanctioned
// way hosts keep delivered packets.
func adoptThenRetain(q *queue, src *Packet) {
	p := src.ClonePooled()
	p.Adopt()
	q.head = p
	q.items = append(q.items, p)
	q.byID[0] = p
}

// Parameters are not locally proven pooled: the fabric's queues retain
// packets whose death points they themselves own, and the analyzer
// must not second-guess that contract across function boundaries.
func unknownProvenance(q *queue, p *Packet) {
	q.items = append(q.items, p)
	q.head = p
}

// The sanctioned shallow-copy shape: adopt the copy, abandon the
// original to the GC, never recycle it.
func shallowAbandon(src *Packet) *Packet {
	c := src.ClonePooled()
	sc := *c
	sc.Adopt()
	return &sc
}

// Re-binding a variable to a fresh clone clears its recycled state.
func rebindAfterRecycle(src *Packet) {
	c := src.ClonePooled()
	c.Recycle()
	c = src.ClonePooled()
	_ = c.WireLen()
	c.Recycle()
}

// A per-iteration clone/recycle pair is clean: the fresh binding at
// the top of each iteration resets the state.
func loopCloneRecycle(src *Packet) {
	for i := 0; i < 4; i++ {
		c := src.ClonePooled()
		_ = c.WireLen()
		c.Recycle()
	}
}

// Recycling distinct clones held in distinct variables is clean.
func twoClones(src *Packet) {
	a := src.ClonePooled()
	b := src.ClonePooled()
	_ = a.WireLen()
	_ = b.WireLen()
	a.Recycle()
	b.Recycle()
}

// The sender's shape: draw, fill in, send, forget.
func drawFillSend(h *host) bool {
	p := h.NewPacketPooled(64)
	p.Payload = append(p.Payload, 1, 2, 3, 4)
	p.Len += 4
	return h.Send(p)
}

// The fabric's shape: clone through the pool, use, recycle.
func poolCloneRecycle(pool *Pool, src *Packet) int {
	c := pool.Clone(src)
	n := c.WireLen()
	c.Recycle()
	return n
}

// Sending a packet of unknown provenance gives nothing up: its holder
// may keep using it (a prober keeps its probe for the retry).
func sendUnknownProvenance(h *host, p *Packet) int {
	h.Send(p)
	return p.WireLen()
}

// The heap Clone (no argument) is not a draw.
func heapCloneRetained(q *queue, src *Packet) {
	c := src.Clone()
	q.head = c
}

// The prober's shape: draw a probe carrying a copy of the program, fill
// in the cookie, send, forget.
func probeFillSend(h *host) bool {
	p := h.NewProbePooled(64)
	p.Payload = append(p.Payload, 0, 0, 0, 1)
	return h.Send(p)
}

// A package-level constructor is not a draw: core.NewTPP builds a
// heap program its caller may keep.
func heapProgramRetained(q *queue) {
	prog := core.NewTPP(core.AddrStack, nil, 2)
	q.prog = prog
}
