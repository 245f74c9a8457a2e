// Package tcpu implements the tiny CPU of §3 of the TPP paper: the
// in-dataplane RISC processor that sequentially executes a packet's
// tiny program against the switch's unified memory map.
//
// The TCPU "is a Reduced Instruction Set Computer (RISC) processor that
// executes instructions in a five stage pipeline"; Exec models the
// architectural effects (every load, store and header update) exactly,
// and Cycles models the pipeline timing (1 instruction per clock with a
// 4-cycle latency) so the §3.3 line-rate feasibility argument can be
// checked quantitatively.
package tcpu

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// DefaultMaxInstructions is the per-device program length limit.  §1
// suggests "restricting TPPs to (say) five instructions per-packet";
// the limit is an ASIC configuration knob, so we default to the paper's
// suggestion.
const DefaultMaxInstructions = 5

// Config selects per-ASIC execution limits.
type Config struct {
	// MaxInstructions caps the program length this TCPU accepts; a
	// longer program faults (end-hosts are expected to split work
	// across multiple TPPs).  Zero means DefaultMaxInstructions.
	MaxInstructions int
}

func (c Config) maxIns() int {
	if c.MaxInstructions <= 0 {
		return DefaultMaxInstructions
	}
	return c.MaxInstructions
}

// Result reports what a TCPU did with one TPP.
type Result struct {
	// Executed counts instructions that entered the execute stage
	// (including a failing CEXEC, excluding instructions it skipped).
	Executed int
	// Loads and Stores count switch-memory accesses performed.
	Loads  int
	Stores int
	// Halted is set when a CEXEC predicate failed: "all instructions
	// that follow a failed CEXEC check will not be executed".
	Halted bool
	// Fault holds the first memory/validation fault, if any;  the
	// TCPU sets core.FlagError on the packet and stops, but the
	// packet still forwards.
	Fault error
	// Cycles is the pipeline occupancy per the Figure 5 timing model.
	Cycles int

	// cstoreStalls counts successful conditional stores, each of
	// which occupies both memory stages (one extra stall cycle).
	cstoreStalls int
}

// Exec runs every instruction of the TPP sequentially, updating packet
// memory, switch memory (through view) and the TPP header (stack
// pointer or hop counter).  It never panics on malformed programs; any
// violation faults the packet instead, because a switch cannot refuse
// to forward line-rate traffic.
func (c Config) Exec(t *core.TPP, view mem.View) Result { return exec(c, nil, t, view) }

// exec is the TCPU: the one prologue, instruction loop and epilogue
// every TPP runs through.  p is the cached validation verdict for t's
// program shape under c, or nil to validate afresh; either way the
// faults, their order and every architectural effect are the same.
//
//alloc:free
func exec(c Config, p *Program, t *core.TPP, view mem.View) (r Result) {
	defer func() {
		r.Cycles = cyclesFor(&r)
		if t.Mode == core.AddrHop {
			// The hop counter advances at every TCPU so the next
			// switch writes the next per-hop record, even if this
			// execution halted or faulted.
			t.Ptr++
		}
		if r.Fault != nil {
			t.Flags |= core.FlagError
		}
	}()

	// Static checks (device length limit, version and mode, operand
	// encodings) depend only on what Compile saw; the dynamic header
	// checks sit between them, so a verdict replays in that order.
	if p != nil {
		if p.preFault != nil {
			r.Fault = p.preFault
			return r
		}
		if err := t.ValidateDynamic(); err != nil {
			r.Fault = err
			return r
		}
		if p.insFault != nil {
			r.Fault = p.insFault
			return r
		}
	} else {
		if len(t.Ins) > c.maxIns() {
			r.Fault = ErrProgramTooLong
			return r
		}
		if err := t.Validate(); err != nil {
			r.Fault = err
			return r
		}
	}

	// Ptr and HopLen are stable for the duration of one execution (the
	// hop counter only advances in the epilogue), so the per-hop
	// packet-memory base is resolved once.
	hopBase := 0
	if t.Mode == core.AddrHop {
		hopBase = int(t.Ptr) * int(t.HopLen/4)
	}

	// Dispatch is a switch of direct calls: an indirect call would
	// defeat escape analysis of &r and heap-allocate every execution.
	for _, in := range t.Ins {
		r.Executed++
		a, b := mem.Addr(in.A), hopBase+int(in.B)
		ok := false
		switch in.Op {
		case core.OpNOP:
			ok = true
		case core.OpLOAD:
			ok = stepLOAD(t, view, &r, a, b)
		case core.OpSTORE:
			ok = stepSTORE(t, view, &r, a, b)
		case core.OpPUSH:
			if t.Mode != core.AddrStack {
				r.Fault = ErrModeMismatch
			} else {
				ok = stepPUSH(t, view, &r, a)
			}
		case core.OpPOP:
			if t.Mode != core.AddrStack {
				r.Fault = ErrModeMismatch
			} else {
				ok = stepPOP(t, view, &r, a)
			}
		case core.OpCSTORE:
			ok = stepCSTORE(t, view, &r, a, b)
		case core.OpCEXEC:
			ok = stepCEXEC(t, view, &r, a, b)
		case core.OpADD, core.OpSUB, core.OpMAX:
			ok = stepArith(t, view, &r, a, b, in.Op)
		default:
			// Unreachable while core.Instruction.Validate rejects the
			// same opcodes; kept so a divergence faults, not panics.
			r.Fault = ErrUnknownOpcode
		}
		if !ok {
			return r
		}
	}
	return r
}

// The step functions execute one opcode each against switch address a
// and packet-memory word b, mutating r's access counters and fault
// state.  They return false when execution must stop: a fault, or a
// failed CEXEC predicate.

//alloc:free
func stepLOAD(t *core.TPP, view mem.View, r *Result, a mem.Addr, b int) bool {
	v, err := view.Load(a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	return putWord(t, r, b, v)
}

//alloc:free
func stepSTORE(t *core.TPP, view mem.View, r *Result, a mem.Addr, b int) bool {
	v, ok := getWord(t, r, b)
	if !ok {
		return false
	}
	if err := view.Store(a, v); err != nil {
		r.Fault = err
		return false
	}
	r.Stores++
	return true
}

//alloc:free
func stepPUSH(t *core.TPP, view mem.View, r *Result, a mem.Addr) bool {
	v, err := view.Load(a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	if int(t.Ptr)+4 > len(t.Mem) {
		r.Fault = ErrStackOverflow
		return false
	}
	t.SetWord(int(t.Ptr)/4, v)
	t.Ptr += 4
	return true
}

//alloc:free
func stepPOP(t *core.TPP, view mem.View, r *Result, a mem.Addr) bool {
	if t.Ptr < 4 {
		r.Fault = ErrStackUnderflow
		return false
	}
	if int(t.Ptr) > len(t.Mem) {
		// A wire-supplied stack pointer can point past packet
		// memory; faulting (not panicking) keeps the dataplane
		// robust against crafted frames.
		r.Fault = ErrStackOOB
		return false
	}
	t.Ptr -= 4
	v := t.Word(int(t.Ptr) / 4)
	if err := view.Store(a, v); err != nil {
		r.Fault = err
		return false
	}
	r.Stores++
	return true
}

// stepCSTORE is CSTORE dst,cond,src: cond and src live in packet memory
// at b and b+1; the old value of dst is written back at b+2 so the
// end-host observes success/failure.
//
//alloc:free
func stepCSTORE(t *core.TPP, view mem.View, r *Result, a mem.Addr, b int) bool {
	cond, ok := getWord(t, r, b)
	if !ok {
		return false
	}
	src, ok := getWord(t, r, b+1)
	if !ok {
		return false
	}
	old, err := condStore(view, a, cond, src, r)
	if err != nil {
		r.Fault = err
		return false
	}
	return putWord(t, r, b+2, old)
}

// stepCEXEC is CEXEC reg,mask,value: execute the rest only if
// (reg & mask) == value; mask and value live in packet memory at b and
// b+1.
//
//alloc:free
func stepCEXEC(t *core.TPP, view mem.View, r *Result, a mem.Addr, b int) bool {
	mask, ok := getWord(t, r, b)
	if !ok {
		return false
	}
	val, ok := getWord(t, r, b+1)
	if !ok {
		return false
	}
	v, err := view.Load(a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	if v&mask != val {
		r.Halted = true
		return false
	}
	return true
}

//alloc:free
func stepArith(t *core.TPP, view mem.View, r *Result, a mem.Addr, b int, op core.Opcode) bool {
	v, err := view.Load(a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	cur, ok := getWord(t, r, b)
	if !ok {
		return false
	}
	switch op {
	case core.OpADD:
		cur += v
	case core.OpSUB:
		cur -= v
	case core.OpMAX:
		if v > cur {
			cur = v
		}
	}
	return putWord(t, r, b, cur)
}

// condStore performs the view's atomic compare-and-store and counts
// its accesses: one load, and one store (with its stall) when it
// commits.
func condStore(view mem.View, a mem.Addr, cond, src uint32, r *Result) (uint32, error) {
	old, err := view.CondStore(a, cond, src)
	if err == nil {
		r.Loads++
		if old == cond {
			r.Stores++
			r.cstoreStalls++
		}
	}
	return old, err
}

// getWord reads packet-memory word i with bounds checking; on a
// violation it faults the result and returns ok=false.
func getWord(t *core.TPP, r *Result, i int) (uint32, bool) {
	if !t.InRange(i) {
		r.Fault = ErrPacketMemOOB
		return 0, false
	}
	return t.Word(i), true
}

// putWord writes packet-memory word i with bounds checking.
func putWord(t *core.TPP, r *Result, i int, v uint32) bool {
	if !t.InRange(i) {
		r.Fault = ErrPacketMemOOB
		return false
	}
	t.SetWord(i, v)
	return true
}
