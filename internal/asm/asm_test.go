package asm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

func TestAssembleMicroburstProgram(t *testing.T) {
	// §2.1: "PUSH [Queue:QueueSize] copies the queue register onto
	// packet memory."
	p, err := Assemble(`
		# micro-burst probe: one queue sample per hop
		.mem 8
		PUSH [Queue:QueueSize]
	`)
	if err != nil {
		t.Fatal(err)
	}
	tpp := p.TPP
	if tpp.Mode != core.AddrStack || tpp.MemWords() != 8 || len(tpp.Ins) != 1 {
		t.Fatalf("unexpected program: %+v", tpp)
	}
	in := tpp.Ins[0]
	want, _ := mem.LookupSymbol("Queue:QueueSize")
	if in.Op != core.OpPUSH || mem.Addr(in.A) != want {
		t.Fatalf("instruction = %+v", in)
	}
}

func TestAssembleRCPCollectPhase(t *testing.T) {
	// §2.2 phase 1, verbatim from the paper.
	p, err := Assemble(`
		.mem 32
		PUSH [Switch:SwitchID]
		PUSH [Link:QueueSize]
		PUSH [Link:RX-Utilization]
		PUSH [Link:RCP-RateRegister]
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TPP.Ins) != 4 {
		t.Fatalf("want 4 instructions, got %d", len(p.TPP.Ins))
	}
	for i, name := range []string{"Switch:SwitchID", "Link:QueueSize",
		"Link:RX-Utilization", "Link:RCP-RateRegister"} {
		want, _ := mem.LookupSymbol(name)
		if got := mem.Addr(p.TPP.Ins[i].A); got != want {
			t.Errorf("ins %d: addr %#x, want %s=%#x", i, got, name, want)
		}
	}
}

func TestAssembleRCPUpdatePhaseWithImmediates(t *testing.T) {
	// §2.2 phase 3, verbatim: the immediate form pools mask/value.
	p, err := Assemble(`
		.def BottleneckSwitchID 0x2
		.mem 1
		.init 0 125000   ; the rate to install
		CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
		STORE [Link:RCP-RateRegister], [PacketMemory:0]
	`)
	if err != nil {
		t.Fatal(err)
	}
	tpp := p.TPP
	if p.PoolWords != 2 {
		t.Fatalf("PoolWords = %d, want 2", p.PoolWords)
	}
	if tpp.MemWords() != 3 {
		t.Fatalf("MemWords = %d, want 3 (pool + 1)", tpp.MemWords())
	}
	// Pool holds mask then value.
	if tpp.Word(0) != 0xFFFFFFFF || tpp.Word(1) != 0x2 {
		t.Fatalf("pool = %#x %#x", tpp.Word(0), tpp.Word(1))
	}
	// .init offset 0 shifted past the pool.
	if tpp.Word(2) != 125000 {
		t.Fatalf("init word = %d", tpp.Word(2))
	}
	// SP starts after the pool so pushes would not clobber it.
	if tpp.Ptr != 8 {
		t.Fatalf("initial SP = %d, want 8", tpp.Ptr)
	}
	// The STORE's packet operand is shifted past the pool too.
	if tpp.Ins[1].B != 2 {
		t.Fatalf("STORE B = %d, want 2", tpp.Ins[1].B)
	}
}

func TestAssembleNdbProgram(t *testing.T) {
	// §2.3, verbatim.
	p, err := Assemble(`
		.mem 30
		PUSH [Switch:ID]
		PUSH [PacketMetadata:MatchedEntryID]
		PUSH [PacketMetadata:InputPort]
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TPP.Ins) != 3 {
		t.Fatalf("want 3 instructions")
	}
}

func TestAssembleHopMode(t *testing.T) {
	p, err := Assemble(`
		.mode hop
		.hopsize 16
		.mem 16
		LOAD [Switch:SwitchID], [Packet:Hop[1]]
	`)
	if err != nil {
		t.Fatal(err)
	}
	tpp := p.TPP
	if tpp.Mode != core.AddrHop || tpp.HopLen != 16 {
		t.Fatalf("hop header: %+v", tpp)
	}
	if tpp.Ins[0].B != 1 {
		t.Fatalf("hop offset = %d", tpp.Ins[0].B)
	}
}

func TestAssembleCSTOREImmediateForm(t *testing.T) {
	p, err := Assemble(`
		.mem 0
		CSTORE [SRAM:0x10], 10, 42
	`)
	if err != nil {
		t.Fatal(err)
	}
	tpp := p.TPP
	// cond, src, result slot.
	if p.PoolWords != 3 || tpp.MemWords() != 3 {
		t.Fatalf("pool = %d, mem = %d", p.PoolWords, tpp.MemWords())
	}
	if tpp.Word(0) != 10 || tpp.Word(1) != 42 {
		t.Fatalf("pool contents %d %d", tpp.Word(0), tpp.Word(1))
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"FROB [Switch:SwitchID]",                 // unknown mnemonic
		".mode sideways",                         // unknown mode
		".frob 1",                                // unknown directive
		"PUSH Switch:SwitchID",                   // missing brackets
		"PUSH [NoSuch:Symbol]",                   // unknown symbol
		"PUSH [Switch:SwitchID], [Packet:0]",     // too many operands
		"LOAD [Switch:SwitchID]",                 // too few operands
		"NOP [Switch:SwitchID]",                  // NOP takes none
		"LOAD [Switch:SwitchID], [Switch:ID]",    // second operand not packet
		"CEXEC [Switch:SwitchID], 1, 2, 3",       // too many operands
		"CEXEC [Switch:SwitchID]",                // too few
		"CEXEC [Switch:SwitchID], 1, $undefined", // undefined $def
		".mode hop\nCEXEC [Switch:ID], 1, 2",     // immediates need stack mode
		".init 0 1",                              // .init outside memory
		"LOAD [Switch:ID], [Packet:Hop[1]]",      // Hop[] needs hop mode
		".mode hop\n.hopsize 6",                  // unaligned hopsize
		".def X",                                 // malformed .def
		".mem 99999999",                          // unaddressable memory
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestAssembleCommentsAndBlankLines(t *testing.T) {
	p, err := Assemble("\n\n# leading comment\n  ; another\n.mem 2\nNOP # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TPP.Ins) != 1 || p.TPP.Ins[0].Op != core.OpNOP {
		t.Fatalf("program: %+v", p.TPP.Ins)
	}
}

// TestMustAssemblePanics: Assemble reports an unknown mnemonic as an
// error, never a panic, and accepts a good program.
func TestMustAssemblePanics(t *testing.T) {
	if p, err := Assemble("BOGUS"); err == nil {
		t.Fatalf("BOGUS assembled: %+v", p.TPP.Ins)
	}
	if _, err := Assemble(".mem 1\nPUSH [Switch:SwitchID]"); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleReadable(t *testing.T) {
	p, err := Assemble(`
		.mem 4
		PUSH [Switch:SwitchID]
		PUSH [Queue:QueueSize]
	`)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p.TPP)
	for _, want := range []string{".mode stack", ".mem 4",
		"PUSH [Switch:SwitchID]", "PUSH [Queue:QueueSize]"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// Property: disassembling and re-assembling reproduces the program
// (instructions, mode, memory image).
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := []core.Opcode{core.OpNOP, core.OpLOAD, core.OpSTORE,
		core.OpPUSH, core.OpPOP, core.OpCSTORE, core.OpCEXEC, core.OpADD}
	for trial := 0; trial < 200; trial++ {
		mode := core.AddrStack
		if r.Intn(2) == 0 {
			mode = core.AddrHop
		}
		memWords := 1 + r.Intn(20)
		nIns := r.Intn(6)
		ins := make([]core.Instruction, nIns)
		for i := range ins {
			op := ops[r.Intn(len(ops))]
			if mode == core.AddrHop && (op == core.OpPUSH || op == core.OpPOP) {
				op = core.OpLOAD
			}
			in := core.Instruction{
				Op: op,
				A:  uint16(r.Intn(mem.AddrSpaceWords)),
				B:  uint16(r.Intn(memWords)),
			}
			// Operands the wire format carries but the assembly
			// syntax does not express are canonically zero.
			if op == core.OpNOP {
				in.A, in.B = 0, 0
			}
			if op == core.OpPUSH || op == core.OpPOP {
				in.B = 0
			}
			ins[i] = in
		}
		orig := core.NewTPP(mode, ins, memWords)
		if mode == core.AddrHop {
			orig.HopLen = 4 * uint16(1+r.Intn(4))
		}
		for w := 0; w < memWords; w++ {
			if r.Intn(3) == 0 {
				orig.SetWord(w, r.Uint32())
			}
		}
		text := Disassemble(orig)
		back, err := Assemble(text)
		if err != nil {
			t.Fatalf("trial %d: reassembly failed: %v\n%s", trial, err, text)
		}
		got := back.TPP
		if got.Mode != orig.Mode || got.HopLen != orig.HopLen ||
			got.MemWords() != orig.MemWords() {
			t.Fatalf("trial %d: header mismatch\n%s", trial, text)
		}
		if len(got.Ins) != len(orig.Ins) {
			t.Fatalf("trial %d: %d instructions, want %d", trial, len(got.Ins), len(orig.Ins))
		}
		for i := range got.Ins {
			if got.Ins[i] != orig.Ins[i] {
				t.Fatalf("trial %d ins %d: %+v != %+v\n%s",
					trial, i, got.Ins[i], orig.Ins[i], text)
			}
		}
		if string(got.Mem) != string(orig.Mem) {
			t.Fatalf("trial %d: memory image differs\n%s", trial, text)
		}
	}
}

func TestDirectiveArgumentErrors(t *testing.T) {
	bad := []string{
		".mode",           // missing argument
		".mem",            // missing argument
		".mem 1 2",        // too many
		".mem xyz",        // not a number
		".hopsize",        // missing
		".init 0",         // missing values
		".init zz 1",      // bad offset
		".init 0 zz",      // bad value
		".def X $missing", // undefined reference
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestDefReferencesDef(t *testing.T) {
	p, err := Assemble(`
		.def A 5
		.def B $A
		.mem 0
		CEXEC [Switch:SwitchID], $A, $B
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.TPP.Word(0) != 5 || p.TPP.Word(1) != 5 {
		t.Fatalf("defs: %d %d", p.TPP.Word(0), p.TPP.Word(1))
	}
}

func TestDisassembleUnknownOpcode(t *testing.T) {
	tpp := core.NewTPP(core.AddrStack, nil, 1)
	tpp.Ins = []core.Instruction{{Op: 99}}
	text := Disassemble(tpp)
	if !strings.Contains(text, "unknown opcode 99") {
		t.Fatalf("disassembly: %q", text)
	}
}

// TestSwitchOperandTrailingGarbage: a numeric switch operand is parsed
// whole; each of these used to assemble as its numeric prefix.
func TestSwitchOperandTrailingGarbage(t *testing.T) {
	for _, operand := range []string{"SRAM:12abc", "0x5junk", "SRAM:1e2", "Port1:3junk", "0x10 0x20"} {
		if p, err := Assemble(".mem 1\nPUSH [" + operand + "]"); err == nil {
			t.Errorf("PUSH [%s] assembled as %v, want an error", operand, p.TPP.Ins[0])
		}
	}
	for operand, want := range map[string]mem.Addr{
		"SRAM:12": mem.SRAMBase + 12, "0x5": 5, "SRAM:0x10": mem.SRAMBase + 0x10, "Port1:3": mem.PortAbs(1, 3), "16": 16,
	} {
		p, err := Assemble(".mem 1\nPUSH [" + operand + "]")
		if err != nil || mem.Addr(p.TPP.Ins[0].A) != want {
			t.Errorf("PUSH [%s] = %v, %v; want address %#x", operand, p, err, want)
		}
	}
}
