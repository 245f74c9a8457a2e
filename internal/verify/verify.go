package verify

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/tcpu"
)

// Code classifies a diagnostic, stable across message rewording so
// callers (and tests) can match on it.
type Code string

// Diagnostic codes.
const (
	// CodeMisaligned: a section violates 4-byte alignment (packet
	// memory length, stack pointer, or per-hop record size).
	CodeMisaligned Code = "misaligned"
	// CodeBadVersion: unsupported TPP wire-format version.
	CodeBadVersion Code = "bad-version"
	// CodeBadMode: unknown addressing mode.
	CodeBadMode Code = "bad-mode"
	// CodeBadOpcode: an instruction uses an opcode outside the set.
	CodeBadOpcode Code = "bad-opcode"
	// CodeBadOperand: an operand exceeds the 12-bit encodable range.
	CodeBadOperand Code = "bad-operand"
	// CodeTooLong: the program exceeds the device instruction limit.
	CodeTooLong Code = "program-too-long"
	// CodeOOBPacketMem: a packet-memory access lands outside the
	// program's packet memory (including hop-relative addresses and
	// stack overflow/underflow).
	CodeOOBPacketMem Code = "oob-packet-memory"
	// CodeUnmapped: a switch-memory operand addresses no register.
	CodeUnmapped Code = "unmapped-address"
	// CodeReadOnly: a store targets a protected/statistics address.
	CodeReadOnly Code = "read-only-store"
	// CodeModeMismatch: PUSH/POP outside stack addressing mode.
	CodeModeMismatch Code = "mode-mismatch"
	// CodeACLDenied: the tenant's ACL denies the access class on this
	// namespace — at runtime the guard would poison the load or drop
	// the store and set FlagAccessFault.
	CodeACLDenied Code = "acl-denied"
	// CodePartitionOOB: an SRAM access falls outside the tenant's
	// base+bounds partition (tenant-relative addresses run from word 0
	// to the partition size).
	CodePartitionOOB Code = "partition-oob"
	// CodeOverBudget: the instruction retires past the per-packet
	// cycle budget, so the program cannot run at line rate.
	CodeOverBudget Code = "over-budget"
	// CodeUninitGuard (warning): a CEXEC/CSTORE guard reads packet
	// memory that nothing initialized.
	CodeUninitGuard Code = "uninitialized-guard"
	// CodeDeadCode (warning): instructions after the last reachable
	// PC.
	CodeDeadCode Code = "dead-code"
	// CodeZeroHopLen (warning): hop addressing with a zero per-hop
	// record size, so every hop overwrites the same words.
	CodeZeroHopLen Code = "zero-hop-record"
)

// Severity splits diagnostics into rejections and lints.
type Severity uint8

const (
	// Warn marks a lint: suspicious but not a rejection.
	Warn Severity = iota
	// Err marks a proof obligation failure: the program is rejected.
	Err
)

// String names the severity.
func (s Severity) String() string {
	if s == Err {
		return "error"
	}
	return "warning"
}

// Diagnostic pins one finding to an instruction.  PC is the
// instruction index, or -1 for program-level findings (header fields,
// overall length).
type Diagnostic struct {
	PC       int
	Code     Code
	Severity Severity
	Msg      string
}

// String formats the diagnostic as "pc 3: error: [code] msg".
func (d Diagnostic) String() string {
	loc := "program"
	if d.PC >= 0 {
		loc = fmt.Sprintf("pc %d", d.PC)
	}
	return fmt.Sprintf("%s: %s: [%s] %s", loc, d.Severity, d.Code, d.Msg)
}

// Result is a verification outcome: the full diagnostic list, in
// program order.
type Result struct {
	Diags []Diagnostic
}

// OK reports whether the program verified: no error-severity
// diagnostics (warnings do not reject).
func (r Result) OK() bool { return len(r.Errors()) == 0 }

// Errors returns only the error-severity diagnostics.
func (r Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == Err {
			out = append(out, d)
		}
	}
	return out
}

// String renders one diagnostic per line.
func (r Result) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Config parameterizes verification for a target device.  The zero
// value models the paper's default switch: a five-instruction TCPU
// with the §3.3 cut-through cycle budget and an unknown port count.
type Config struct {
	// MaxInstructions is the device program-length limit; zero means
	// tcpu.DefaultMaxInstructions.
	MaxInstructions int
	// BudgetCycles is the per-packet execution budget; zero means
	// tcpu.BudgetCycles.  A line-rate budget is the PerPacketBudgetCycles
	// of tcpu.CheckLineRate.
	BudgetCycles int
	// Ports bounds the absolute per-port statistics window; zero
	// means unknown (the whole window is assumed mapped, the
	// permissive end-host default).
	Ports int
	// Grant, when non-nil, additionally checks every switch-memory
	// access against a tenant's entitlement: the per-namespace ACL and
	// the SRAM partition bounds.  The check calls the same
	// guard.Grant.CheckLoad/CheckStore the dataplane guard enforces
	// with, so a program that verifies under a grant never triggers a
	// dynamic FlagAccessFault on a switch honoring that grant — the
	// injection-time rejection the extended paper's edge demands.
	Grant *guard.Grant
}

func (c Config) maxIns() int {
	if c.MaxInstructions <= 0 {
		return tcpu.DefaultMaxInstructions
	}
	return c.MaxInstructions
}

func (c Config) budget() int {
	if c.BudgetCycles <= 0 {
		return tcpu.BudgetCycles
	}
	return c.BudgetCycles
}

// Verify runs the full static check over a parsed TPP at its current
// header state (the stack pointer / hop counter the program will carry
// into its first switch).  The TPP is not modified.
func Verify(t *core.TPP, cfg Config) Result {
	var r Result
	diag := func(pc int, code Code, sev Severity, format string, args ...any) {
		r.Diags = append(r.Diags, Diagnostic{PC: pc, Code: code, Severity: sev, Msg: fmt.Sprintf(format, args...)})
	}

	// Wire-format sanity (the static mirror of core.Validate, plus
	// the checks Validate leaves to the TCPU).
	structOK := true
	if t.Version != core.TPPVersion {
		diag(-1, CodeBadVersion, Err, "unsupported TPP version %d (want %d)", t.Version, core.TPPVersion)
		structOK = false
	}
	if t.Mode != core.AddrStack && t.Mode != core.AddrHop {
		diag(-1, CodeBadMode, Err, "invalid addressing mode %d", uint8(t.Mode))
		structOK = false
	}
	if len(t.Ins) > core.MaxTPPInstructions {
		diag(-1, CodeTooLong, Err, "%d instructions exceed the wire-format maximum %d", len(t.Ins), core.MaxTPPInstructions)
		structOK = false
	} else if len(t.Ins) > cfg.maxIns() {
		diag(-1, CodeTooLong, Err, "%d instructions exceed the device limit %d", len(t.Ins), cfg.maxIns())
	}
	if len(t.Mem)%4 != 0 {
		diag(-1, CodeMisaligned, Err, "packet memory length %d is not 4-byte aligned", len(t.Mem))
		structOK = false
	}
	if t.Mode == core.AddrHop && t.HopLen%4 != 0 {
		diag(-1, CodeMisaligned, Err, "per-hop record size %d is not 4-byte aligned", t.HopLen)
		structOK = false
	}
	if t.Mode == core.AddrHop && t.HopLen == 0 && len(t.Ins) > 0 {
		diag(-1, CodeZeroHopLen, Warn, "hop addressing with zero per-hop record size: every hop writes the same words")
	}
	if t.Mode == core.AddrStack && t.Ptr%4 != 0 {
		diag(-1, CodeMisaligned, Err, "stack pointer %d is not 4-byte aligned", t.Ptr)
		structOK = false
	}
	for pc, in := range t.Ins {
		if !in.Op.Valid() {
			diag(pc, CodeBadOpcode, Err, "invalid opcode %d", uint8(in.Op))
			structOK = false
		}
		if in.A > core.MaxOperand {
			diag(pc, CodeBadOperand, Err, "switch operand %#x exceeds %d bits", in.A, core.OperandBits)
			structOK = false
		}
		if in.B > core.MaxOperand {
			diag(pc, CodeBadOperand, Err, "packet operand %#x exceeds %d bits", in.B, core.OperandBits)
			structOK = false
		}
	}
	if !structOK {
		// The abstract walk needs a structurally sound program; the
		// findings above already reject it.
		return r
	}

	w := walker{t: t, cfg: cfg, diag: diag}
	w.run()
	return r
}

// walker is the abstract-interpretation state for one straight-line
// pass over the program at its first hop.
type walker struct {
	t    *core.TPP
	cfg  Config
	diag func(pc int, code Code, sev Severity, format string, args ...any)

	sp       int    // abstract stack pointer, bytes (stack mode)
	sp0Words int    // words below the initial SP count as initialized
	written  []bool // packet-memory words written by earlier instructions
	stalls   int    // worst-case stall cycles accrued so far
}

func (w *walker) run() {
	t := w.t
	w.written = make([]bool, t.MemWords())
	if t.Mode == core.AddrStack {
		w.sp = int(t.Ptr)
		w.sp0Words = int(t.Ptr) / 4
	}

	budget := w.cfg.budget()
	for pc, in := range t.Ins {
		if w.step(pc, in) {
			if pc+1 < len(t.Ins) {
				w.diag(pc+1, CodeDeadCode, Warn,
					"instructions %d..%d are unreachable: the CEXEC at pc %d can never pass", pc+1, len(t.Ins)-1, pc)
			}
			return
		}
		// Figure 5 pipeline: instruction pc retires at cycle
		// PipelineLatency+pc, plus the stalls of every (worst-case
		// committing) instruction at or before it.
		if retire := tcpu.PipelineLatency + pc + w.stalls; retire > budget {
			w.diag(pc, CodeOverBudget, Err,
				"instruction retires at cycle %d, past the %d-cycle per-packet budget", retire, budget)
		}
	}
}

// step checks one instruction against its row of the opcode table
// (core.Opcode.Info), the only per-opcode fact it reads: the stack mode
// a stack move needs, the packet words it reads and writes, and
// its switch-memory access.  It reports whether the instruction is a
// guard over constants that can never pass, which makes everything
// after it dead code.
func (w *walker) step(pc int, in core.Instruction) (dead bool) {
	t := w.t
	info, _ := in.Op.Info()
	base := t.EffectiveWord(in.B)
	if info.SP != 0 {
		if t.Mode != core.AddrStack {
			w.diag(pc, CodeModeMismatch, Err, "%s requires stack addressing mode", in.Op)
			return false
		}
		base = w.sp / 4
	}
	ok := w.inRange(pc, in.Op, base, info.Reads, "reads") &&
		w.inRange(pc, in.Op, base, info.Writes, "writes")
	switch info.Access {
	case core.AccessLoad:
		w.checkLoad(pc, in.A)
	case core.AccessStore, core.AccessCond:
		w.checkStore(pc, in.A)
	}
	w.stalls += info.Stall // worst case: the store commits
	if !ok {
		return false
	}
	// A guard's and a conditional store's reads are compared, not
	// copied: a word nothing initialized makes the compare arbitrary.
	if info.Halts || info.Access == core.AccessCond {
		for _, o := range info.Reads {
			w.guardRead(pc, in.Op, base+o)
		}
	}
	for _, o := range info.Writes {
		w.written[base+o] = true
	}
	w.sp += 4 * info.SP
	if !info.Halts {
		return false
	}
	// If both guard words still hold their injection-time contents,
	// the predicate is a compile-time constant in value bits outside
	// the mask: (reg & mask) can never equal a value with bits the
	// mask clears.
	m, v := base+info.Reads[0], base+info.Reads[1]
	return !w.written[m] && !w.written[v] && t.Word(v)&^t.Word(m) != 0
}

// initialized reports whether word i provably holds a meaningful value
// when read: pre-set nonzero memory, anything below the initial stack
// pointer, or a word an earlier instruction wrote.
func (w *walker) initialized(i int) bool {
	return w.written[i] || w.t.Word(i) != 0 || (w.t.Mode == core.AddrStack && i < w.sp0Words)
}

// inRange bounds-checks the packet words op reads or writes, at offsets
// offs from word base, reporting the first outside packet memory.
func (w *walker) inRange(pc int, op core.Opcode, base int, offs []int, verb string) bool {
	for _, o := range offs {
		if !w.t.InRange(base + o) {
			w.diag(pc, CodeOOBPacketMem, Err,
				"%s %s packet-memory word %d out of range (%d words)", op, verb, base+o, w.t.MemWords())
			return false
		}
	}
	return true
}

// checkLoad verifies that switch address a is a mapped register and,
// under a tenant grant, that the tenant may read it.
func (w *walker) checkLoad(pc int, a uint16) {
	if !mem.Readable(mem.Addr(a), w.cfg.Ports) {
		w.diag(pc, CodeUnmapped, Err, "load from unmapped address %s (%#x)", mem.NameOf(mem.Addr(a)), mem.Addr(a).ByteAddr())
		return
	}
	w.checkGrant(pc, mem.Addr(a), false)
}

// checkGrant rejects any access the tenant's grant would deny at
// runtime, deciding through the same CheckLoad/CheckStore the guard
// uses — which is what makes static acceptance imply dynamic silence.
func (w *walker) checkGrant(pc int, addr mem.Addr, write bool) {
	g := w.cfg.Grant
	if g == nil {
		return
	}
	ok := false
	if write {
		_, ok = g.CheckStore(addr)
	} else {
		_, ok = g.CheckLoad(addr)
	}
	if ok {
		return
	}
	verb, access := "load from", "read"
	if write {
		verb, access = "store to", "write"
	}
	ns := mem.NamespaceOf(addr)
	if ns == mem.NSSRAM && g.ACL.Allows(ns, write) {
		w.diag(pc, CodePartitionOOB, Err,
			"%s %s (%#x): SRAM word %d is outside the tenant's %d-word partition",
			verb, mem.NameOf(addr), addr.ByteAddr(), mem.SRAMIndex(addr), g.Words())
		return
	}
	w.diag(pc, CodeACLDenied, Err,
		"%s %s (%#x): the tenant ACL denies %s access to the %s namespace",
		verb, mem.NameOf(addr), addr.ByteAddr(), access, ns)
}

// checkStore verifies that switch address a accepts TPP stores and,
// under a tenant grant, that the tenant may write it.  The store is
// decided by mem.StoreFault, the same call the ASIC's view makes.
func (w *walker) checkStore(pc int, a uint16) {
	addr := mem.Addr(a)
	switch mem.StoreFault(addr, w.cfg.Ports) {
	case 0:
		w.checkGrant(pc, addr, true)
	case mem.ReadOnly:
		w.diag(pc, CodeReadOnly, Err, "store to protected address %s (%#x): statistics are read-only", mem.NameOf(addr), addr.ByteAddr())
	default:
		w.diag(pc, CodeUnmapped, Err, "store to unmapped address %s (%#x)", mem.NameOf(addr), addr.ByteAddr())
	}
}

// guardRead lint-checks a CEXEC/CSTORE guard word.
func (w *walker) guardRead(pc int, op core.Opcode, i int) {
	if !w.initialized(i) {
		w.diag(pc, CodeUninitGuard, Warn,
			"%s guard reads packet-memory word %d, which nothing initialized", op, i)
	}
}
