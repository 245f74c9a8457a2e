package tcpu

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// This file implements the §3.3 line-rate compilation argument in
// software (following the approach argued by Packet Transactions for
// P4 pipelines): a verified TPP is translated exactly once into a flat
// step table with opcode dispatch, addressing-mode branches and static
// validation resolved ahead of time, and the TCPU thereafter executes
// the compiled form directly.  The compiled path is byte-for-byte
// behaviorally identical to Config.Exec — same Result, same memory
// effects, same spans, same fault values in the same order — which the
// FuzzCompile differential target proves against every experiment
// program.

// stepKind is the pre-decoded dispatch index of one compiled
// instruction.  Exec dispatches on it with a switch of direct calls
// rather than through function pointers: an indirect call would defeat
// escape analysis of the Result pointer threaded through the steps and
// heap-allocate every execution.
type stepKind uint8

const (
	kNOP stepKind = iota
	kLOAD
	kSTORE
	kPUSH
	kPOP
	kCSTORE
	kCEXEC
	kADD
	kSUB
	kMAX
	// kBadMode faults PUSH/POP compiled under a non-stack addressing
	// mode; the mode check is resolved at compile time but the fault
	// must still fire at the instruction's position, after any earlier
	// instructions have run.
	kBadMode
	// kBadOp faults an unknown opcode at runtime.  It cannot be a
	// compile-time fault: a preceding CEXEC may halt execution before
	// the bad instruction, in which case the interpreter never faults.
	kBadOp
)

// cstep is one compiled instruction: a dispatch kind plus pre-decoded
// operands.
type cstep struct {
	kind stepKind
	a    mem.Addr // switch-memory operand
	b    int      // packet-memory word operand, relative to hopBase
	op   core.Opcode
}

// Program is the compiled form of one TPP program shape under one
// device Config.  It is immutable after Compile and safe to share
// across packets, hops and (future) parallel shards; Exec mutates only
// the packet and the Result.
type Program struct {
	cfg   Config
	steps []cstep
	// n, mode and version pin the static shape the program was
	// compiled from, so executors can cheaply reject a mismatched TPP.
	n       int
	mode    core.AddrMode
	version uint8
	// preFault is the static fault every execution of this shape hits
	// before the first instruction (program too long for the device, or
	// a head validation failure).  insFault is the static
	// per-instruction encoding fault; the interpreter checks it after
	// the dynamic header checks, so Exec preserves that order.
	preFault error
	insFault error
}

// Compile translates the program carried by t (its instruction
// section, addressing mode and version — the dynamic header fields and
// packet memory are ignored) into its compiled form under device
// config c.  Compile is total: programs that can never execute are
// compiled to a form that faults exactly as the interpreter would, and
// unknown opcodes become runtime-faulting steps because a preceding
// CEXEC may legitimately halt execution before reaching them.
func Compile(c Config, t *core.TPP) *Program {
	p := &Program{
		cfg:     c,
		n:       len(t.Ins),
		mode:    t.Mode,
		version: t.Version,
	}
	// Static prologue faults, in the interpreter's exact order: the
	// device length limit first, then the head validation.
	if p.n > c.maxIns() {
		p.preFault = c.faultTooLong(p.n)
		return p
	}
	if err := t.ValidateHead(); err != nil {
		p.preFault = err
		return p
	}
	if err := t.ValidateIns(); err != nil {
		p.insFault = err
		// The faulting execution never reaches the instruction loop,
		// so no steps are needed.
		return p
	}
	p.steps = make([]cstep, p.n)
	for i, in := range t.Ins {
		p.steps[i] = compileIns(in, t.Mode)
	}
	return p
}

func compileIns(in core.Instruction, mode core.AddrMode) cstep {
	s := cstep{a: mem.Addr(in.A), b: int(in.B), op: in.Op}
	switch in.Op {
	case core.OpNOP:
		s.kind = kNOP
	case core.OpLOAD:
		s.kind = kLOAD
	case core.OpSTORE:
		s.kind = kSTORE
	case core.OpPUSH:
		if mode != core.AddrStack {
			s.kind = kBadMode
		} else {
			s.kind = kPUSH
		}
	case core.OpPOP:
		if mode != core.AddrStack {
			s.kind = kBadMode
		} else {
			s.kind = kPOP
		}
	case core.OpCSTORE:
		s.kind = kCSTORE
	case core.OpCEXEC:
		s.kind = kCEXEC
	case core.OpADD:
		s.kind = kADD
	case core.OpSUB:
		s.kind = kSUB
	case core.OpMAX:
		s.kind = kMAX
	default:
		s.kind = kBadOp
	}
	return s
}

// Matches reports whether the program was compiled under a device
// configuration equivalent to c, i.e. whether executing it on a device
// configured with c is behaviorally identical to interpreting.
func (p *Program) Matches(c Config) bool {
	return p.cfg.maxIns() == c.maxIns() && p.cfg.RecordSpans == c.RecordSpans
}

// MatchesTPP reports whether t carries the static shape this program
// was compiled from.  It is a cheap guard against executing a stale
// attachment; equality of the instruction words themselves is the
// cache's responsibility.
func (p *Program) MatchesTPP(t *core.TPP) bool {
	return p.n == len(t.Ins) && p.mode == t.Mode && p.version == t.Version
}

// Exec runs the compiled program against view, with semantics
// identical to Config.Exec on the TPP it was compiled from.
//
//alloc:free
func (p *Program) Exec(t *core.TPP, view mem.View) (r Result) {
	defer func() {
		r.Cycles = cyclesFor(&r)
		if t.Mode == core.AddrHop {
			t.Ptr++
		}
		if r.Fault != nil {
			t.Flags |= core.FlagError
		}
	}()

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

	// Resolve the per-hop packet-memory base once; the interpreter
	// recomputes it per operand, but Ptr and HopLen are stable for the
	// duration of one execution (Ptr only advances in the defer).
	hopBase := 0
	if t.Mode == core.AddrHop {
		hopBase = int(t.Ptr) * int(t.HopLen/4)
	}

	for i := range p.steps {
		s := &p.steps[i]
		r.Executed++
		loads, stores, stalls := r.Loads, r.Stores, r.cstoreStalls
		var ok bool
		switch s.kind {
		case kNOP:
			ok = true
		case kLOAD:
			ok = stepLOAD(p, s, t, view, &r, hopBase)
		case kSTORE:
			ok = stepSTORE(p, s, t, view, &r, hopBase)
		case kPUSH:
			ok = stepPUSH(p, s, t, view, &r)
		case kPOP:
			ok = stepPOP(p, s, t, view, &r)
		case kCSTORE:
			ok = stepCSTORE(p, s, t, view, &r, hopBase)
		case kCEXEC:
			ok = stepCEXEC(p, s, t, view, &r, hopBase)
		case kADD, kSUB, kMAX:
			ok = stepArith(p, s, t, view, &r, hopBase, s.op)
		case kBadMode:
			//alloc:allow fault detail boxes the opcode; faulting programs leave the hot path
			r.Fault = p.cfg.faultMode(s.op)
		case kBadOp:
			//alloc:allow fault detail boxes the opcode; faulting programs leave the hot path
			r.Fault = p.cfg.faultOpcode(s.op)
		}
		if p.cfg.RecordSpans {
			if r.Spans == nil {
				//alloc:allow per-instruction spans allocate only for callers that set RecordSpans
				r.Spans = make([]InsSpan, 0, p.n)
			}
			r.Spans = append(r.Spans, InsSpan{
				Index:       r.Executed - 1,
				Op:          s.op,
				RetireCycle: PipelineLatency + r.Executed - 1 + r.cstoreStalls,
				Loads:       r.Loads - loads,
				Stores:      r.Stores - stores,
				Stall:       r.cstoreStalls > stalls,
				Fault:       r.Fault != nil,
				Halted:      r.Halted,
			})
		}
		if !ok {
			return r
		}
	}
	return r
}

//alloc:free
func stepLOAD(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result, hopBase int) bool {
	v, err := view.Load(s.a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	return p.cfg.putWord(t, r, hopBase+s.b, v)
}

//alloc:free
func stepSTORE(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result, hopBase int) bool {
	v, ok := p.cfg.getWord(t, r, hopBase+s.b)
	if !ok {
		return false
	}
	if err := view.Store(s.a, v); err != nil {
		r.Fault = err
		return false
	}
	r.Stores++
	return true
}

//alloc:free
func stepPUSH(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result) bool {
	v, err := view.Load(s.a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	if int(t.Ptr)+4 > len(t.Mem) {
		//alloc:allow fault detail boxes the operands; faulting programs leave the hot path
		r.Fault = p.cfg.faultStackOverflow(t.Ptr, len(t.Mem))
		return false
	}
	t.SetWord(int(t.Ptr)/4, v)
	t.Ptr += 4
	return true
}

//alloc:free
func stepPOP(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result) bool {
	if t.Ptr < 4 {
		//alloc:allow fault detail boxes the operands; faulting programs leave the hot path
		r.Fault = p.cfg.faultStackUnderflow(t.Ptr)
		return false
	}
	if int(t.Ptr) > len(t.Mem) {
		//alloc:allow fault detail boxes the operands; faulting programs leave the hot path
		r.Fault = p.cfg.faultStackOOB(t.Ptr, len(t.Mem))
		return false
	}
	t.Ptr -= 4
	v := t.Word(int(t.Ptr) / 4)
	if err := view.Store(s.a, v); err != nil {
		r.Fault = err
		return false
	}
	r.Stores++
	return true
}

//alloc:free
func stepCSTORE(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result, hopBase int) bool {
	base := hopBase + s.b
	cond, ok := p.cfg.getWord(t, r, base)
	if !ok {
		return false
	}
	src, ok := p.cfg.getWord(t, r, base+1)
	if !ok {
		return false
	}
	old, err := p.cfg.condStore(view, s.a, cond, src, r)
	if err != nil {
		r.Fault = err
		return false
	}
	return p.cfg.putWord(t, r, base+2, old)
}

//alloc:free
func stepCEXEC(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result, hopBase int) bool {
	base := hopBase + s.b
	mask, ok := p.cfg.getWord(t, r, base)
	if !ok {
		return false
	}
	val, ok := p.cfg.getWord(t, r, base+1)
	if !ok {
		return false
	}
	v, err := view.Load(s.a)
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
func stepArith(p *Program, s *cstep, t *core.TPP, view mem.View, r *Result, hopBase int, op core.Opcode) bool {
	v, err := view.Load(s.a)
	if err != nil {
		r.Fault = err
		return false
	}
	r.Loads++
	w := hopBase + s.b
	cur, ok := p.cfg.getWord(t, r, w)
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
	return p.cfg.putWord(t, r, w, cur)
}
