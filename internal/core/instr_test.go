package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpcodeNames(t *testing.T) {
	cases := map[Opcode]string{
		OpNOP:    "NOP",
		OpLOAD:   "LOAD",
		OpSTORE:  "STORE",
		OpPUSH:   "PUSH",
		OpPOP:    "POP",
		OpCSTORE: "CSTORE",
		OpCEXEC:  "CEXEC",
		OpADD:    "ADD",
		OpSUB:    "SUB",
		OpMAX:    "MAX",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Opcode(%d).String() = %q, want %q", op, got, want)
		}
		if !op.Valid() {
			t.Errorf("Opcode %s should be valid", want)
		}
		if got, ok := ParseOpcode(want); !ok || got != op {
			t.Errorf("ParseOpcode(%q) = %d, %v, want %d", want, got, ok, op)
		}
	}
	for _, bad := range []string{"", "nop", "OP(200)", "JMP"} {
		if op, ok := ParseOpcode(bad); ok {
			t.Errorf("ParseOpcode(%q) = %s, want no match", bad, op)
		}
	}
	if Opcode(200).Valid() {
		t.Error("Opcode(200) should be invalid")
	}
	if got := Opcode(200).String(); got != "OP(200)" {
		t.Errorf("invalid opcode string = %q", got)
	}
}

func TestInstructionWordRoundTrip(t *testing.T) {
	in := Instruction{Op: OpCSTORE, A: 0xABC, B: 0x123}
	out := DecodeInstruction(in.Word())
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestInstructionWordLayout(t *testing.T) {
	in := Instruction{Op: OpLOAD, A: 0xFFF, B: 0x001}
	if got, want := in.Word(), uint32(1)<<24|uint32(0xFFF)<<12|1; got != want {
		t.Fatalf("Word() = %#x, want %#x", got, want)
	}
}

// Property: Word followed by DecodeInstruction is the identity for all
// encodable instructions.
func TestInstructionRoundTripQuick(t *testing.T) {
	f := func(op uint8, a, b uint16) bool {
		in := Instruction{Op: Opcode(op), A: a & MaxOperand, B: b & MaxOperand}
		return DecodeInstruction(in.Word()) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionValidate(t *testing.T) {
	ok := Instruction{Op: OpPUSH, A: 100}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instruction rejected: %v", err)
	}
	bad := []Instruction{
		{Op: Opcode(99)},
		{Op: OpLOAD, A: MaxOperand + 1},
		{Op: OpLOAD, B: MaxOperand + 1},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("instruction %+v should be invalid", in)
		}
	}
}

func TestOpcodeUsesB(t *testing.T) {
	usesB := map[Opcode]bool{
		OpNOP: false, OpLOAD: true, OpSTORE: true, OpPUSH: false,
		OpPOP: false, OpCSTORE: true, OpCEXEC: true, OpADD: true,
		OpSUB: true, OpMAX: true,
	}
	for op, want := range usesB {
		info, _ := op.Info()
		if got := info.Form >= FormAB; got != want {
			t.Errorf("%s.Info().Form = %v: uses B %v, want %v", op, info.Form, got, want)
		}
	}
}

func TestOpcodeWrites(t *testing.T) {
	writes := map[Opcode]bool{
		OpNOP: false, OpLOAD: false, OpSTORE: true, OpPUSH: false,
		OpPOP: true, OpCSTORE: true, OpCEXEC: false, OpADD: false,
		OpSUB: false, OpMAX: false,
	}
	for op, want := range writes {
		info, _ := op.Info()
		if got := info.Access >= AccessStore; got != want {
			t.Errorf("%s.Info().Access = %v: writes %v, want %v", op, info.Access, got, want)
		}
	}
}

func TestInstructionString(t *testing.T) {
	if got := (Instruction{Op: OpPUSH, A: 0x201}).String(); got != "PUSH [0x201]" {
		t.Errorf("PUSH string = %q", got)
	}
	if got := (Instruction{Op: OpNOP}).String(); got != "NOP" {
		t.Errorf("NOP string = %q", got)
	}
	if got := (Instruction{Op: OpSTORE, A: 0x108, B: 2}).String(); got != "STORE [0x108], [Packet:2]" {
		t.Errorf("STORE string = %q", got)
	}
}

// randomInstructions builds a slice of valid random instructions.
func randomInstructions(r *rand.Rand, n int) []Instruction {
	ins := make([]Instruction, n)
	for i := range ins {
		ins[i] = Instruction{
			Op: Opcode(r.Intn(int(opMax) + 1)),
			A:  uint16(r.Intn(MaxOperand + 1)),
			B:  uint16(r.Intn(MaxOperand + 1)),
		}
	}
	return ins
}
