package asm

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
)

// Disassemble renders a TPP back into assembly source.  Switch operands
// are printed with their canonical mnemonics where known; packet
// operands are printed as raw word indexes (the immediate pool cannot
// be reconstructed from the wire format, so three-operand forms
// disassemble to their two-operand equivalents).
func Disassemble(t *core.TPP) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".mode %s\n", t.Mode)
	fmt.Fprintf(&b, ".mem %d\n", t.MemWords())
	if t.Mode == core.AddrHop {
		fmt.Fprintf(&b, ".hopsize %d\n", t.HopLen)
	}
	if t.Ptr != 0 {
		fmt.Fprintf(&b, ".ptr %d\n", t.Ptr)
	}
	for w := 0; w < t.MemWords(); w++ {
		if v := t.Word(w); v != 0 {
			fmt.Fprintf(&b, ".init %d %#x\n", w, v)
		}
	}
	for _, in := range t.Ins {
		b.WriteString(formatIns(t.Mode, in))
		b.WriteByte('\n')
	}
	return b.String()
}

func formatIns(mode core.AddrMode, in core.Instruction) string {
	sw := fmt.Sprintf("[%s]", mem.NameOf(mem.Addr(in.A)))
	pkt := func() string {
		if mode == core.AddrHop {
			return fmt.Sprintf("[Packet:Hop[%d]]", in.B)
		}
		return fmt.Sprintf("[Packet:%d]", in.B)
	}
	info, ok := in.Op.Info()
	switch {
	case !ok:
		return fmt.Sprintf("; unknown opcode %d", uint8(in.Op))
	case info.Form == core.FormNone:
		return info.Name
	case info.Form == core.FormA:
		return fmt.Sprintf("%s %s", in.Op, sw)
	default:
		return fmt.Sprintf("%s %s, %s", in.Op, sw, pkt())
	}
}
