// Package asm assembles the x86-like TPP assembly language used
// throughout the paper ("when we write TPPs in an x86-like assembly
// language, we will refer to specific dataplane statistics using the
// notation [Namespace:Statistic]") into wire-format TPPs, and
// disassembles them back.
//
// Source syntax, one statement per line ('#' or ';' start a comment):
//
//	.mode stack|hop          addressing mode (default stack)
//	.mem N                   packet memory words to preallocate
//	.hopsize N               per-hop bytes (hop mode)
//	.def NAME VALUE          define $NAME for use as an immediate
//	.init OFF V1 [V2 ...]    initialize packet memory words
//	.ptr N                   initial stack pointer (stack mode) or hop
//	                         counter (hop mode), in raw header bytes;
//	                         overrides the computed pool offset
//
//	PUSH [Queue:QueueSize]
//	POP  [SRAM:0x10]
//	LOAD [Switch:SwitchID], [Packet:Hop[1]]
//	STORE [Link:RCP-RateRegister], [Packet:0]
//	CSTORE [SRAM:0x10], [Packet:4]
//	CEXEC [Switch:SwitchID], [Packet:0]
//	ADD [Link:QueueSize], [Packet:2]
//	NOP
//
// The paper's three-operand immediate forms are also accepted in stack
// mode:
//
//	CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
//	CSTORE [SRAM:0], 10, 42
//
// Immediate operands are placed in an immediate pool at the front of
// packet memory and the initial stack pointer is set past the pool, so
// PUSHes never clobber them.  In hop mode every packet operand is
// hop-relative, so immediates must be laid out explicitly with .init.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
)

// Program is the result of assembling a source file.
type Program struct {
	TPP *core.TPP
	// PoolWords is the number of immediate-pool words placed at the
	// front of packet memory (stack mode only).
	PoolWords int
	// Lines maps each instruction index to its 1-based source line, so
	// verifier diagnostics can be attributed back to the source.
	Lines []int
}

// Line returns the 1-based source line of instruction pc, or 0 when
// unknown.
func (p *Program) Line(pc int) int {
	if pc < 0 || pc >= len(p.Lines) {
		return 0
	}
	return p.Lines[pc]
}

// Assemble compiles TPP assembly source into a ready-to-send TPP.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		mode: core.AddrStack,
		defs: make(map[string]uint32),
		init: make(map[int]uint32),
	}
	for lineno, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		a.curLine = lineno + 1
		if err := a.statement(line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineno+1, err)
		}
	}
	return a.finish()
}

type pendingIns struct {
	op   core.Opcode
	a    mem.Addr
	line int // 1-based source line
	// Exactly one of the following B-operand shapes is used.
	hasPkt bool
	pkt    uint16   // explicit packet word (or hop offset)
	imms   []uint32 // immediates to pool (stack mode)
	poolAt int      // filled in at finish: pool slot of imms[0]
	extra  int      // extra pool words after the immediates (len(core.OpInfo.Writes))
}

type assembler struct {
	mode     core.AddrMode
	memWords int
	hopLen   int
	ptr      int
	ptrSet   bool
	curLine  int
	defs     map[string]uint32
	init     map[int]uint32
	ins      []pendingIns
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, "#;"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (a *assembler) statement(line string) error {
	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	return a.instruction(line)
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".mode":
		if len(fields) != 2 {
			return fmt.Errorf(".mode wants one argument")
		}
		switch fields[1] {
		case "stack":
			a.mode = core.AddrStack
		case "hop":
			a.mode = core.AddrHop
		default:
			return fmt.Errorf("unknown mode %q", fields[1])
		}
	case ".mem":
		n, err := parseInt(fields, 1)
		if err != nil {
			return err
		}
		a.memWords = int(n)
	case ".hopsize":
		n, err := parseInt(fields, 1)
		if err != nil {
			return err
		}
		if n%4 != 0 {
			return fmt.Errorf(".hopsize must be 4-byte aligned")
		}
		a.hopLen = int(n)
	case ".ptr":
		n, err := parseInt(fields, 1)
		if err != nil {
			return err
		}
		if n%4 != 0 {
			return fmt.Errorf(".ptr must be 4-byte aligned")
		}
		a.ptr = int(n)
		a.ptrSet = true
	case ".def":
		if len(fields) != 3 {
			return fmt.Errorf(".def wants NAME VALUE")
		}
		v, err := parseValue(fields[2], a.defs)
		if err != nil {
			return err
		}
		a.defs[fields[1]] = v
	case ".init":
		if len(fields) < 3 {
			return fmt.Errorf(".init wants OFFSET VALUE...")
		}
		off, err := parseValue(fields[1], a.defs)
		if err != nil {
			return err
		}
		for i, f := range fields[2:] {
			v, err := parseValue(f, a.defs)
			if err != nil {
				return err
			}
			a.init[int(off)+i] = v
		}
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

func parseInt(fields []string, i int) (uint32, error) {
	if len(fields) != i+1 {
		return 0, fmt.Errorf("%s wants one argument", fields[0])
	}
	v, err := strconv.ParseUint(fields[i], 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", fields[i])
	}
	return uint32(v), nil
}

// parseValue parses a numeric literal or a $NAME reference.
func parseValue(s string, defs map[string]uint32) (uint32, error) {
	if name, ok := strings.CutPrefix(s, "$"); ok {
		v, ok := defs[name]
		if !ok {
			return 0, fmt.Errorf("undefined symbol $%s", name)
		}
		return v, nil
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return uint32(v), nil
}

func (a *assembler) instruction(line string) error {
	op, rest, _ := strings.Cut(line, " ")
	opcode, ok := core.ParseOpcode(strings.ToUpper(op))
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", op)
	}
	info, _ := opcode.Info()
	operands := splitOperands(rest)
	p := pendingIns{op: opcode, line: a.curLine}

	switch n := len(operands); {
	case info.Form == core.FormNone && n != 0:
		return fmt.Errorf("%s takes no operands", info.Name)
	case info.Form == core.FormA && n != 1:
		return fmt.Errorf("%s wants one switch operand", op)
	case info.Form == core.FormAB && n != 2:
		return fmt.Errorf("%s wants a switch and a packet operand", op)
	case info.Form == core.FormABOrImm && n < 2:
		return fmt.Errorf("%s wants 2 or 3 operands", op)
	}
	if len(operands) > 0 {
		// The paper writes destination first: LOAD [sw],[pkt] and
		// STORE [sw],[pkt]; both orders carry the switch operand in
		// the bracketed non-Packet position.
		addr, err := a.switchOperand(operands[0])
		if err != nil {
			return err
		}
		p.a = addr
	}
	switch len(operands) {
	case 0, 1:
	case 2: // explicit packet operand
		pkt, err := a.packetOperand(operands[1])
		if err != nil {
			return err
		}
		p.hasPkt, p.pkt = true, pkt
	case 3: // immediate form: pool the two values
		if a.mode != core.AddrStack {
			return fmt.Errorf("immediate operands need stack mode; use .init in hop mode")
		}
		v1, err := parseValue(operands[1], a.defs)
		if err != nil {
			return err
		}
		v2, err := parseValue(operands[2], a.defs)
		if err != nil {
			return err
		}
		p.imms = []uint32{v1, v2}
		p.extra = len(info.Writes)
	default:
		return fmt.Errorf("%s wants 2 or 3 operands", op)
	}
	a.ins = append(a.ins, p)
	return nil
}

// splitOperands splits "a, b, c" respecting that brackets never nest.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// switchOperand parses "[Namespace:Statistic]" (or a bracketed raw
// address) into a virtual address.
func (a *assembler) switchOperand(s string) (mem.Addr, error) {
	inner, ok := unbracket(s)
	if !ok {
		return 0, fmt.Errorf("switch operand %q must be bracketed", s)
	}
	addr, err := mem.ParseSymbolOrAddr(inner)
	if err != nil {
		return 0, err
	}
	return addr, nil
}

// packetOperand parses "[Packet:N]" or "[Packet:Hop[N]]".
func (a *assembler) packetOperand(s string) (uint16, error) {
	inner, ok := unbracket(s)
	if !ok {
		return 0, fmt.Errorf("packet operand %q must be bracketed", s)
	}
	rest, ok := strings.CutPrefix(inner, "Packet:")
	if !ok {
		// The paper also spells it [PacketMemory:Offset] (§2.2).
		rest, ok = strings.CutPrefix(inner, "PacketMemory:")
	}
	if !ok {
		return 0, fmt.Errorf("packet operand %q must use the Packet namespace", s)
	}
	if hopArg, ok := strings.CutPrefix(strings.ToLower(rest), "hop["); ok {
		hopArg = strings.TrimSuffix(hopArg, "]")
		n, err := strconv.ParseUint(hopArg, 0, 16)
		if err != nil {
			return 0, fmt.Errorf("bad hop offset %q", rest)
		}
		if a.mode != core.AddrHop {
			return 0, fmt.Errorf("Hop[] operands need .mode hop")
		}
		return uint16(n), nil
	}
	n, err := strconv.ParseUint(rest, 0, 16)
	if err != nil || n > core.MaxOperand {
		return 0, fmt.Errorf("bad packet word %q", rest)
	}
	return uint16(n), nil
}

func unbracket(s string) (string, bool) {
	if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
		return strings.TrimSpace(s[1 : len(s)-1]), true
	}
	return "", false
}

// finish lays out the immediate pool, resolves operands and builds the
// TPP.
func (a *assembler) finish() (*Program, error) {
	pool := 0
	for i := range a.ins {
		if a.ins[i].imms != nil {
			a.ins[i].poolAt = pool
			pool += len(a.ins[i].imms) + a.ins[i].extra
		}
	}
	totalWords := pool + a.memWords
	if totalWords > int(core.MaxOperand)+1 {
		return nil, fmt.Errorf("asm: packet memory of %d words not addressable", totalWords)
	}

	ins := make([]core.Instruction, 0, len(a.ins))
	for _, p := range a.ins {
		in := core.Instruction{Op: p.op, A: uint16(p.a)}
		switch {
		case p.imms != nil:
			in.B = uint16(p.poolAt)
		case p.hasPkt:
			b := p.pkt
			if a.mode == core.AddrStack {
				// Explicit packet words are relative to the
				// program's working memory, after the pool.
				b += uint16(pool)
			}
			in.B = b
		}
		if int(in.B) > core.MaxOperand {
			return nil, fmt.Errorf("asm: packet operand %d not encodable", in.B)
		}
		ins = append(ins, in)
	}

	tpp := core.NewTPP(a.mode, ins, totalWords)
	if a.mode == core.AddrHop {
		tpp.HopLen = uint16(a.hopLen)
	} else {
		tpp.Ptr = uint16(pool * 4) // SP starts after the pool
	}
	if a.ptrSet {
		tpp.Ptr = uint16(a.ptr)
	}
	for _, p := range a.ins {
		for k, v := range p.imms {
			tpp.SetWord(p.poolAt+k, v)
		}
	}
	inits := make([]int, 0, len(a.init))
	for off := range a.init { //lint:allow maporder (sorted below)
		inits = append(inits, off)
	}
	sort.Ints(inits) // deterministic error selection on overlapping .init
	for _, off := range inits {
		w := off
		if a.mode == core.AddrStack {
			w += pool
		}
		if !tpp.InRange(w) {
			return nil, fmt.Errorf("asm: .init word %d outside packet memory", off)
		}
		tpp.SetWord(w, a.init[off])
	}
	if err := tpp.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	lines := make([]int, len(a.ins))
	for i, p := range a.ins {
		lines[i] = p.line
	}
	return &Program{TPP: tpp, PoolWords: pool, Lines: lines}, nil
}
