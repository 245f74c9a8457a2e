//go:build pooldebug

package core

import (
	"fmt"
	"runtime"
	"strings"
)

// The pooldebug build tag turns the packet pool into a sanitizer, the
// dynamic counterpart of the poollife static analyzer: Recycle poisons
// every buffer the slot owns and bumps the slot's generation counter;
// a draw (Pool.Clone, Pool.NewUDP) verifies the poison canary before
// reusing a slot; and
// the instrumented accessors (WireLen, Serialize, Clone, Adopt, ...)
// panic — naming the call site that recycled the packet — when invoked
// through a reference issued before the recycle.  The chaos and
// hostile soaks run under `-tags pooldebug -race` in CI, so any
// lifecycle rule the linter's intraprocedural view cannot see is still
// caught end to end.  Violations panic rather than log: a lifecycle
// bug invalidates the simulation, exactly like a determinism breach.

// PoolDebug reports which pool implementation this binary carries;
// tests use it to pick the expected violation behavior (and to skip an
// allocation budget: the sanitizer formats a call site per Recycle).
//
//api:harness the build-tag switch the pool and budget tests read
const PoolDebug = true

// poolDebug is the per-packet-copy sanitizer state: the slot
// generation this copy was issued under.  Shallow struct copies
// inherit it, which is what lets a stale referent be told apart from
// the slot's current incarnation at the same address.
type poolDebug struct {
	gen uint64
}

// blockDebug is the per-pool-slot sanitizer state.
type blockDebug struct {
	gen        uint64 // bumped by every Recycle; issued copies pin the value
	poisoned   bool   // slot buffers hold the canary pattern
	recycledBy string // fabric call site of the most recent Recycle
}

const (
	poisonByte = 0xdd
	poisonOp   = Opcode(poisonByte)
)

// checkLive panics when p is a reference into a pool slot that has
// been recycled since the reference was issued.
func (p *Packet) checkLive(op string) {
	if p.block != nil && p.dbg.gen != p.block.dbg.gen {
		panic(fmt.Sprintf("core: pooldebug: %s on a packet recycled at %s (issued gen %d, slot gen %d)",
			op, p.block.dbg.recycledBy, p.dbg.gen, p.block.dbg.gen))
	}
}

// checkRecycle enforces the recycle-side rules: recycling twice (or
// through any stale reference) and recycling a shallow copy both
// panic.  Release builds degrade the same cases to no-ops.
func (p *Packet) checkRecycle() {
	if p.block == nil {
		return
	}
	if p.dbg.gen != p.block.dbg.gen {
		panic(fmt.Sprintf("core: pooldebug: Recycle on a packet already recycled at %s",
			p.block.dbg.recycledBy))
	}
	if p.pooled && p != &p.block.pkt {
		panic("core: pooldebug: Recycle on a shallow copy of a pooled packet; " +
			"Adopt the copy and abandon the original instead")
	}
}

// markIssued pins the slot generation into the freshly issued copy.
func (p *Packet) markIssued() { p.dbg.gen = p.block.dbg.gen }

// poisonAndRetire records the recycler's call site, invalidates every
// outstanding reference by bumping the slot generation, and fills the
// slot's buffers (to capacity, not length) with the canary pattern so
// a write through a stale alias is detectable at the next reuse.
func (p *Packet) poisonAndRetire() {
	b := p.block
	b.dbg.recycledBy = callerSite()
	b.dbg.gen++
	b.dbg.poisoned = true
	poisonBytes(b.pkt.Payload)
	poisonBytes(b.tpp.Mem)
	poisonBytes(b.ip.Options)
	ins := b.tpp.Ins[:cap(b.tpp.Ins)]
	for i := range ins {
		ins[i] = Instruction{Op: poisonOp, A: poisonByte, B: poisonByte}
	}
}

// checkCanary verifies, as a slot leaves the pool, that nothing wrote
// through a stale alias while the slot sat recycled.
func (b *pooledBlock) checkCanary() {
	if !b.dbg.poisoned {
		return // fresh slot from New: never poisoned, nothing to check
	}
	if !poisonIntact(b.pkt.Payload) || !poisonIntact(b.tpp.Mem) || !poisonIntact(b.ip.Options) {
		panic(fmt.Sprintf("core: pooldebug: pool slot buffers clobbered after Recycle at %s "+
			"(a stale referent wrote through aliased buffers)", b.dbg.recycledBy))
	}
	ins := b.tpp.Ins[:cap(b.tpp.Ins)]
	for i := range ins {
		if ins[i] != (Instruction{Op: poisonOp, A: poisonByte, B: poisonByte}) {
			panic(fmt.Sprintf("core: pooldebug: pool slot instructions clobbered after Recycle at %s",
				b.dbg.recycledBy))
		}
	}
}

// Poison fills t's packet memory and instructions with the canary
// pattern.  An owner that lends t out for the length of a call — the
// prober's echo — poisons it when the call returns, so a borrower that
// kept the pointer reads 0xdddddddd words and invalid opcodes instead of
// the next loan's contents.  Release builds make it a no-op.
func (t *TPP) Poison() {
	poisonBytes(t.Mem)
	ins := t.Ins[:cap(t.Ins)]
	for i := range ins {
		ins[i] = Instruction{Op: poisonOp, A: poisonByte, B: poisonByte}
	}
}

func poisonBytes(s []byte) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = poisonByte
	}
}

func poisonIntact(s []byte) bool {
	s = s[:cap(s)]
	for i := range s {
		if s[i] != poisonByte {
			return false
		}
	}
	return true
}

// callerSite names the first frame outside the pool implementation:
// the fabric code that performed the Recycle.
func callerSite() string {
	var pcs [8]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if !strings.HasSuffix(f.File, "/pool.go") && !strings.HasSuffix(f.File, "/pool_debug.go") || !more {
			return fmt.Sprintf("%s:%d", f.File, f.Line)
		}
	}
}
