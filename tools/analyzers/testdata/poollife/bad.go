package poollife

import "repro/internal/core"

// Positive cases: every rule the poollife analyzer enforces, one
// function per shape.  Each violating line carries a want comment
// naming a substring of the expected finding; the test harness matches
// findings against these line by line.

func useAfterRecycle(src *Packet) {
	c := src.ClonePooled()
	c.Recycle()
	_ = c.WireLen() // want "use of c after Recycle"
}

func fieldAfterRecycle(src *Packet) int {
	c := src.ClonePooled()
	c.Recycle()
	return c.Len // want "use of c after Recycle"
}

func doubleRecycle(src *Packet) {
	c := src.ClonePooled()
	c.Recycle()
	c.Recycle() // want "recycled twice"
}

// A recycle on one branch poisons the merged state: the use after the
// if is reachable through the recycling path.
func branchRecycle(src *Packet, drop bool) {
	c := src.ClonePooled()
	if drop {
		c.Recycle()
	}
	_ = c.Serialize() // want "use of c after Recycle"
}

// Loop-carried: the recycle at the bottom of one iteration reaches the
// use at the top of the next, and the second recycle is a double.
func loopRecycle(src *Packet) {
	c := src.ClonePooled()
	for i := 0; i < 2; i++ {
		_ = c.WireLen() // want "use of c after Recycle"
		c.Recycle()     // want "recycled twice"
	}
}

func retainField(q *queue, src *Packet) {
	p := src.ClonePooled()
	q.head = p // want "stored into a field without Adopt"
}

func retainMap(q *queue, src *Packet) {
	p := src.ClonePooled()
	q.byID[0] = p // want "stored into a map or slice element without Adopt"
}

func retainAppend(q *queue, src *Packet) {
	p := src.ClonePooled()
	q.items = append(q.items, p) // want "appended to a slice without Adopt"
}

func retainSend(q *queue, src *Packet) {
	p := src.ClonePooled()
	q.ch <- p // want "sent on a channel without Adopt"
}

func retainClosure(src *Packet) func() int {
	p := src.ClonePooled()
	return func() int {
		return p.Len // want "captured by a closure without Adopt"
	}
}

func retainLiteral(src *Packet) *queue {
	p := src.ClonePooled()
	return &queue{head: p} // want "stored into a composite literal without Adopt"
}

// Recycling the original after a shallow copy aliased its buffers: the
// copy keeps using memory the pool now owns.
func shallowRecycle(src *Packet) {
	c := src.ClonePooled()
	sc := *c
	sc.Adopt()
	c.Recycle() // want "recycled after a shallow copy"
}

// Each pool draw is tracked like ClonePooled: storing the packet
// without Adopt is a retention.
func retainPoolClone(q *queue, pool *Pool, src *Packet) {
	p := pool.Clone(src)
	q.head = p // want "stored into a field without Adopt"
}

func retainNewUDP(q *queue, pool *Pool) {
	p := pool.NewUDP(64)
	q.items = append(q.items, p) // want "appended to a slice without Adopt"
}

func retainNewPacketPooled(q *queue, h *host) {
	p := h.NewPacketPooled(64)
	q.head = p // want "stored into a field without Adopt"
}

// Send hands a pooled packet to the fabric: touching it afterwards is a
// use after the hand-off, and recycling it a double release.
func touchAfterSend(h *host) int {
	p := h.NewPacketPooled(64)
	h.Send(p)
	return p.Len // want "use of p after Send"
}

func recycleAfterSend(h *host, pool *Pool, src *Packet) {
	p := pool.Clone(src)
	if !h.Send(p) {
		p.Recycle() // want "recycled after Send"
	}
}

// The program-carrying draws are draws like the rest.
func retainNewTPP(q *queue, pool *Pool) {
	p := pool.NewTPP(64)
	q.head = p // want "stored into a field without Adopt"
}

func retainNewProbePooled(q *queue, h *host) {
	p := h.NewProbePooled(64)
	q.head = p // want "stored into a field without Adopt"
}

// A probe is sent and forgotten: the fabric may have recycled it by the
// time Send returns.
func touchProbeAfterSend(h *host) int {
	p := h.NewProbePooled(64)
	h.Send(p)
	return p.Len // want "use of p after Send"
}

// Probe callbacks that keep the echo they only borrow.
func keepBorrowedEcho(pr *prober, prog *core.TPP) (*core.TPP, []*core.TPP) {
	type outcome struct{ echo *core.TPP }
	var kept *core.TPP
	var all []*core.TPP
	var outs []outcome
	var box struct{ echo *core.TPP }
	pr.Probe(prog, func(e *core.TPP) { kept = e })                                // want "keeps its borrowed echo e"
	pr.Probe(prog, func(e *core.TPP) { all = append(all, e) })                    // want "keeps its borrowed echo e"
	pr.ProbeCfg(prog, func(e *core.TPP) { outs = append(outs, outcome{e}) }, nil) // want "keeps its borrowed echo e"
	pr.Probe(prog, func(e *core.TPP) { box.echo = e })                            // want "keeps its borrowed echo e"
	return kept, all
}

// A handler passed as a method value, or through a field the package
// assigns one to, is a callback like a literal.
type echoKeeper struct {
	pr   *prober
	last *core.TPP
	onFn func(*core.TPP)
}

func (k *echoKeeper) keep(e *core.TPP)  { k.last = e } // want "keeps its borrowed echo e"
func (k *echoKeeper) stash(e *core.TPP) { k.last = e } // want "keeps its borrowed echo e"

func (k *echoKeeper) probeBound(prog *core.TPP) {
	k.onFn = k.stash
	k.pr.Probe(prog, k.keep)
	k.pr.ProbeCfg(prog, k.onFn, nil)
}
