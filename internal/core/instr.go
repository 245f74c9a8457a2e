package core

import (
	"fmt"
)

// Opcode identifies a TPP instruction (Table 1 of the paper).
type Opcode uint8

// The TPP instruction set.  LOAD/PUSH copy values from switch memory to
// packet memory; STORE/POP copy values from packet memory to switch
// memory; CSTORE is an atomic conditional store; CEXEC conditionally
// executes the subsequent instructions.  NOP and ADD are the "simple
// arithmetic" extensions §3.3 allows for.
const (
	OpNOP    Opcode = 0 // no operation
	OpLOAD   Opcode = 1 // pkt[B] = sw[A]
	OpSTORE  Opcode = 2 // sw[A] = pkt[B]
	OpPUSH   Opcode = 3 // pkt[SP] = sw[A]; SP += 4  (stack mode)
	OpPOP    Opcode = 4 // SP -= 4; sw[A] = pkt[SP]  (stack mode)
	OpCSTORE Opcode = 5 // old = sw[A]; if old == pkt[B] { sw[A] = pkt[B+1] }; pkt[B+2] = old
	OpCEXEC  Opcode = 6 // if sw[A] & pkt[B] != pkt[B+1] { halt }
	OpADD    Opcode = 7 // pkt[B] += sw[A]  (arithmetic extension)
	OpSUB    Opcode = 8 // pkt[B] -= sw[A]  (arithmetic extension)
	OpMAX    Opcode = 9 // pkt[B] = max(pkt[B], sw[A])  (aggregation extension)

	opMax = OpMAX
)

// OperandForm is the assembly operand shape of an opcode.
type OperandForm uint8

const (
	FormNone    OperandForm = iota // OP
	FormA                          // OP [switch]
	FormAB                         // OP [switch], [Packet:n]
	FormABOrImm                    // OP [switch], [Packet:n]  or  OP [switch], imm, imm
)

// Access is what an opcode does to switch memory at operand A.
type Access uint8

const (
	_           Access = iota // the zero Access touches no switch memory
	AccessLoad                // reads sw[A]
	AccessStore               // writes sw[A]
	AccessCond                // reads sw[A] and writes it when the compare holds
)

// OpInfo is everything about an opcode that is not its semantics: how
// it is spelled, which operands it takes, which packet and switch words
// it touches and what it costs.  The semantics live in one place, the
// TCPU (internal/tcpu); the verifier (internal/verify) judges a program
// against these rows alone, and TestOpInfoMatchesExec holds every row
// to what the TCPU does.
type OpInfo struct {
	Name   string
	Form   OperandForm
	Access Access
	// Reads and Writes are the packet-memory words the opcode reads and
	// writes, as word offsets from its base: the stack pointer's word
	// for an opcode that moves it, B's effective word for every other.
	// The immediate form (FormABOrImm) reserves a pool word for each
	// write after its two immediates (CSTORE's old-value slot).
	Reads, Writes []int
	// SP is the stack-pointer move in words.  An opcode that moves the
	// stack pointer runs only in stack addressing mode.
	SP int
	// Halts marks a guard: unless (sw[A] & pkt[Reads[0]]) ==
	// pkt[Reads[1]], the program stops here, without a fault.
	Halts bool
	// Stall is the extra pipeline cycles the opcode costs when it
	// commits a write (Figure 5: CSTORE occupies both memory stages in
	// one instruction).
	Stall int
}

var opTable = [...]OpInfo{
	OpNOP:    {Name: "NOP", Form: FormNone},
	OpLOAD:   {Name: "LOAD", Form: FormAB, Access: AccessLoad, Writes: []int{0}},
	OpSTORE:  {Name: "STORE", Form: FormAB, Access: AccessStore, Reads: []int{0}},
	OpPUSH:   {Name: "PUSH", Form: FormA, Access: AccessLoad, Writes: []int{0}, SP: 1},
	OpPOP:    {Name: "POP", Form: FormA, Access: AccessStore, Reads: []int{-1}, SP: -1},
	OpCSTORE: {Name: "CSTORE", Form: FormABOrImm, Access: AccessCond, Reads: []int{0, 1}, Writes: []int{2}, Stall: 1},
	OpCEXEC:  {Name: "CEXEC", Form: FormABOrImm, Access: AccessLoad, Reads: []int{0, 1}, Halts: true},
	OpADD:    {Name: "ADD", Form: FormAB, Access: AccessLoad, Reads: []int{0}, Writes: []int{0}},
	OpSUB:    {Name: "SUB", Form: FormAB, Access: AccessLoad, Reads: []int{0}, Writes: []int{0}},
	OpMAX:    {Name: "MAX", Form: FormAB, Access: AccessLoad, Reads: []int{0}, Writes: []int{0}},
}

// Valid reports whether the opcode is part of the instruction set.
func (o Opcode) Valid() bool { return o <= opMax }

// Info returns the opcode's table row; ok is false for an opcode
// outside the instruction set.
func (o Opcode) Info() (info OpInfo, ok bool) {
	if !o.Valid() {
		return OpInfo{}, false
	}
	return opTable[o], true
}

// String returns the assembly mnemonic of the opcode.
func (o Opcode) String() string {
	if o.Valid() {
		return opTable[o].Name
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// ParseOpcode is the inverse of String: it returns the opcode whose
// assembly mnemonic is exactly name.
func ParseOpcode(name string) (Opcode, bool) {
	for op := range opTable {
		if opTable[op].Name == name {
			return Opcode(op), true
		}
	}
	return 0, false
}

// InstructionLen is the fixed encoded size of one instruction in bytes.
// §3.3: "we were able to encode an instruction and its operands in a
// 4-byte integer".
const InstructionLen = 4

// OperandBits is the width of each operand field; operands are
// word-granular virtual addresses, so 12 bits address a 16 KiB byte
// space.
const OperandBits = 12

// MaxOperand is the largest encodable operand value.
const MaxOperand = 1<<OperandBits - 1

// Instruction is one decoded TPP instruction.
//
// A is always a switch virtual address (a word index into the unified
// memory map of §3.2.1).  B is a packet-memory operand: a word index
// into the TPP's packet memory, interpreted according to the TPP's
// addressing mode (absolute in stack mode, hop-relative in hop mode).
// PUSH and POP take no B operand; their packet operand is the implicit
// stack pointer.
type Instruction struct {
	Op Opcode
	A  uint16
	B  uint16
}

// Word encodes the instruction as the 4-byte integer layout
// op(8) | A(12) | B(12).
func (i Instruction) Word() uint32 {
	return uint32(i.Op)<<24 | uint32(i.A&MaxOperand)<<12 | uint32(i.B&MaxOperand)
}

// DecodeInstruction decodes a 4-byte instruction word.
func DecodeInstruction(w uint32) Instruction {
	return Instruction{
		Op: Opcode(w >> 24),
		A:  uint16(w >> 12 & MaxOperand),
		B:  uint16(w & MaxOperand),
	}
}

// Validate checks that the instruction is encodable and uses a known
// opcode.
func (i Instruction) Validate() error {
	if !i.Op.Valid() {
		return fmt.Errorf("core: invalid opcode %d", uint8(i.Op))
	}
	if i.A > MaxOperand {
		return fmt.Errorf("core: operand A %#x exceeds %d bits", i.A, OperandBits)
	}
	if i.B > MaxOperand {
		return fmt.Errorf("core: operand B %#x exceeds %d bits", i.B, OperandBits)
	}
	return nil
}

// String formats the instruction in raw (symbol-free) assembly syntax.
func (i Instruction) String() string {
	info, ok := i.Op.Info()
	switch {
	case ok && info.Form == FormNone:
		return info.Name
	case ok && info.Form == FormA:
		return fmt.Sprintf("%s [%#x]", i.Op, i.A)
	default:
		return fmt.Sprintf("%s [%#x], [Packet:%d]", i.Op, i.A, i.B)
	}
}
