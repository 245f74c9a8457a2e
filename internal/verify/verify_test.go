package verify_test

import (
	"testing"

	. "repro/internal/verify"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/ndb"
	"repro/internal/tcpu"
	"repro/internal/wireless"
)

// hasErr reports whether the result carries an error with the given
// code at the given PC.
func hasErr(r Result, pc int, code Code) bool {
	for _, d := range r.Errors() {
		if d.PC == pc && d.Code == code {
			return true
		}
	}
	return false
}

func TestRejectsOutOfBoundsStore(t *testing.T) {
	// STORE reads pkt[9] but the program owns 2 words of memory.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: uint16(mem.SRAMBase), B: 9},
	}, 2)
	r := Verify(tpp, Config{})
	if r.OK() {
		t.Fatalf("out-of-bounds store verified:\n%s", r)
	}
	if !hasErr(r, 0, CodeOOBPacketMem) {
		t.Fatalf("want %s at pc 0, got:\n%s", CodeOOBPacketMem, r)
	}
}

func TestRejectsProtectedStore(t *testing.T) {
	// [Queue:QueueSize] is a statistics register: read-only.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: uint16(mem.QueueBase + mem.QueueBytes), B: 0},
	}, 1)
	r := Verify(tpp, Config{})
	if !hasErr(r, 0, CodeReadOnly) {
		t.Fatalf("want %s at pc 0, got:\n%s", CodeReadOnly, r)
	}
	// POP stores too: same protection.
	tpp = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(mem.SwitchBase + mem.SwitchID)},
	}, 1)
	tpp.Ptr = 4
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeReadOnly) {
		t.Fatalf("POP to statistics register verified:\n%s", r)
	}
}

func TestRejectsMisalignedSections(t *testing.T) {
	tpp := core.NewTPP(core.AddrStack, nil, 2)
	tpp.Ptr = 2 // not 4-byte aligned
	if r := Verify(tpp, Config{}); !hasErr(r, -1, CodeMisaligned) {
		t.Fatalf("misaligned stack pointer verified:\n%s", r)
	}

	tpp = core.NewTPP(core.AddrHop, nil, 4)
	tpp.HopLen = 6 // not 4-byte aligned
	if r := Verify(tpp, Config{}); !hasErr(r, -1, CodeMisaligned) {
		t.Fatalf("misaligned hop record verified:\n%s", r)
	}

	tpp = core.NewTPP(core.AddrStack, nil, 2)
	tpp.Mem = tpp.Mem[:6] // torn word
	if r := Verify(tpp, Config{}); !hasErr(r, -1, CodeMisaligned) {
		t.Fatalf("misaligned packet memory verified:\n%s", r)
	}
}

func TestRejectsOverBudgetProgram(t *testing.T) {
	// A 64-port 10GbE switch at min packet size shares one 1GHz clock
	// across 5 pipelines: ~5 cycles of budget per packet.  A
	// five-instruction program needs 8.
	lr := tcpu.CheckLineRate(64, 10, 64, 5, 1.0)
	cfg := Config{BudgetCycles: int(lr.PerPacketBudgetCycles)}
	if cfg.BudgetCycles >= tcpu.PipelineLatency+5-1 {
		t.Fatalf("line-rate budget %d too generous for the test premise", cfg.BudgetCycles)
	}
	ins := make([]core.Instruction, 5)
	for i := range ins {
		ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)}
	}
	tpp := core.NewTPP(core.AddrStack, ins, 5)
	r := Verify(tpp, cfg)
	if r.OK() {
		t.Fatalf("over-budget program verified under %d-cycle budget:\n%s", cfg.BudgetCycles, r)
	}
	found := false
	for _, d := range r.Errors() {
		if d.Code == CodeOverBudget {
			found = true
			// The diagnostic must be per-instruction: pinned to the
			// first instruction that retires past the budget.
			if d.PC < 0 || d.PC >= len(ins) {
				t.Fatalf("over-budget diagnostic not pinned to a PC: %v", d)
			}
		}
	}
	if !found {
		t.Fatalf("want %s, got:\n%s", CodeOverBudget, r)
	}
	// The same program fits the default §3.3 cut-through budget.
	if r := Verify(tpp, Config{}); !r.OK() {
		t.Fatalf("program rejected under the default budget:\n%s", r)
	}
}

func TestRejectsUnmappedAddresses(t *testing.T) {
	// Switch namespace only backs 10 statistic words.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase) + 200},
	}, 1)
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeUnmapped) {
		t.Fatalf("unmapped load verified:\n%s", r)
	}
	// Absolute port window beyond the switch's port count.
	tpp = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.PortAbs(5, mem.PortQueueSize))},
	}, 1)
	if r := Verify(tpp, Config{Ports: 2}); !hasErr(r, 0, CodeUnmapped) {
		t.Fatalf("out-of-range port window load verified:\n%s", r)
	}
	// ...but verifies when the port count is unknown (permissive).
	if r := Verify(tpp, Config{}); !r.OK() {
		t.Fatalf("port window load rejected without a port bound:\n%s", r)
	}
}

func TestRejectsModeAndStackMisuse(t *testing.T) {
	tpp := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
	}, 4)
	tpp.HopLen = 4
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeModeMismatch) {
		t.Fatalf("PUSH in hop mode verified:\n%s", r)
	}

	tpp = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(mem.SRAMBase)},
	}, 1)
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeOOBPacketMem) {
		t.Fatalf("POP on empty stack verified:\n%s", r)
	}

	// PUSH with no room at the first hop.
	tpp = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
	}, 0)
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeOOBPacketMem) {
		t.Fatalf("PUSH into zero-word memory verified:\n%s", r)
	}
}

func TestRejectsOverlongProgram(t *testing.T) {
	ins := make([]core.Instruction, 6)
	for i := range ins {
		ins[i] = core.Instruction{Op: core.OpNOP}
	}
	tpp := core.NewTPP(core.AddrStack, ins, 0)
	if r := Verify(tpp, Config{}); !hasErr(r, -1, CodeTooLong) {
		t.Fatalf("six instructions verified under the default 5-instruction device:\n%s", r)
	}
	if r := Verify(tpp, Config{MaxInstructions: 8}); !r.OK() {
		t.Fatalf("six instructions rejected under an 8-instruction device:\n%s", r)
	}
}

func TestHopRelativeBounds(t *testing.T) {
	// Hop 3 of a 4-words-per-hop program addressing 8 words of memory:
	// effective word 3*1+0 = 3 in range; offset 5 is not.
	tpp := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 5},
	}, 4)
	tpp.HopLen = 4
	tpp.Ptr = 3
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeOOBPacketMem) {
		t.Fatalf("hop-relative out-of-bounds load verified:\n%s", r)
	}
	tpp.Ptr = 2
	tpp.Ins[0].B = 1 // word 2*1+1 = 3: in range
	if r := Verify(tpp, Config{}); !r.OK() {
		t.Fatalf("in-range hop-relative load rejected:\n%s", r)
	}
}

func TestLintsUninitializedGuard(t *testing.T) {
	// CEXEC over zeroed, never-written packet memory above the stack
	// pointer: a guard nothing initialized.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
	}, 2)
	r := Verify(tpp, Config{})
	if !r.OK() {
		t.Fatalf("lint must not reject:\n%s", r)
	}
	found := false
	for _, d := range r.Diags {
		if d.Code == CodeUninitGuard && d.Severity == Warn {
			found = true
		}
	}
	if !found {
		t.Fatalf("want %s warning, got:\n%s", CodeUninitGuard, r)
	}

	// Pre-initialized guards (the RCP/accounting pattern) stay clean.
	tpp = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
	}, 2)
	tpp.SetWord(0, 0xFFFFFFFF)
	tpp.SetWord(1, 7)
	for _, d := range Verify(tpp, Config{}).Diags {
		if d.Code == CodeUninitGuard {
			t.Fatalf("initialized guard still linted: %v", d)
		}
	}
}

func TestLintsDeadCodeAfterImpossibleCEXEC(t *testing.T) {
	// mask 0x0F but value 0xF0: (reg & 0x0F) can never have high bits.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
	}, 3)
	tpp.SetWord(0, 0x0F)
	tpp.SetWord(1, 0xF0)
	tpp.Ptr = 8
	r := Verify(tpp, Config{})
	if !r.OK() {
		t.Fatalf("dead-code lint must not reject:\n%s", r)
	}
	found := false
	for _, d := range r.Diags {
		if d.Code == CodeDeadCode && d.PC == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("want %s at pc 1, got:\n%s", CodeDeadCode, r)
	}
}

func TestRejectsStructurallyInvalid(t *testing.T) {
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{{Op: core.Opcode(99)}}, 0)
	if r := Verify(tpp, Config{}); !hasErr(r, 0, CodeBadOpcode) {
		t.Fatalf("bad opcode verified:\n%s", r)
	}
	tpp = core.NewTPP(core.AddrStack, nil, 0)
	tpp.Version = 9
	if r := Verify(tpp, Config{}); !hasErr(r, -1, CodeBadVersion) {
		t.Fatalf("bad version verified:\n%s", r)
	}
	tpp = core.NewTPP(core.AddrMode(7), nil, 0)
	if r := Verify(tpp, Config{}); !hasErr(r, -1, CodeBadMode) {
		t.Fatalf("bad mode verified:\n%s", r)
	}
}

// TestAcceptsExperimentPrograms verifies every TPP program the rcp,
// ndb, microburst, blackhole, accounting and wireless workloads inject
// today: the verifier must not reject working production programs.
func TestAcceptsExperimentPrograms(t *testing.T) {
	cfg := Config{}

	programs := map[string]*core.TPP{
		"microburst-telemetry": microburst.TelemetryProgram(7),
		"microburst-breakdown": microburst.BreakdownProgram(7),
		"ndb-trace":            ndb.TraceProgram(7),
		"wireless-snr":         wireless.SNRProgram(4),
	}

	// rcp phase-1 collect (the paper's program, via the same helper
	// rcp/star.go uses) and the blackhole hop trace.
	collect, err := endhost.CollectProgram([]mem.Addr{
		mem.SwitchBase + mem.SwitchID,
		mem.QueueBase + mem.QueueBytes,
		mem.PortBase + mem.PortRXUtil,
		mem.PortBase + mem.PortScratchBase,
	}, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	programs["rcp-collect"] = collect

	capacity, err := endhost.CollectProgram([]mem.Addr{
		mem.SwitchBase + mem.SwitchID,
		mem.PortBase + mem.PortCapacity,
	}, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	programs["rcp-capacity"] = capacity

	blackhole, err := endhost.CollectProgram([]mem.Addr{mem.SwitchBase + mem.SwitchID}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	programs["blackhole-hoptrace"] = blackhole

	// rcp phase-3 rate update (star.go sendUpdate).
	update := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		{Op: core.OpSTORE, A: uint16(mem.PortBase + mem.PortScratchBase), B: 2},
	}, 3)
	update.SetWord(0, 0xFFFFFFFF)
	update.SetWord(1, 3) // bottleneck switch id
	update.SetWord(2, 125_000)
	update.Ptr = 12
	programs["rcp-update"] = update

	// accounting's atomic counter increment (accounting.go attempt).
	cstore := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		{Op: core.OpCSTORE, A: uint16(mem.SRAMBase + 16), B: 2},
	}, 5)
	cstore.SetWord(0, 0xFFFFFFFF)
	cstore.SetWord(1, 1)
	cstore.SetWord(2, 10)
	cstore.SetWord(3, 11)
	programs["accounting-cstore"] = cstore

	for name, tpp := range programs {
		if r := Verify(tpp, cfg); !r.OK() {
			t.Errorf("%s rejected:\n%s", name, r)
		}
		// The wire round-trip must verify identically.
		var parsed core.TPP
		if _, err := core.ParseTPP(tpp.AppendTo(nil), &parsed); err != nil {
			t.Errorf("%s does not parse off the wire: %v", name, err)
		} else if r := Verify(&parsed, cfg); !r.OK() {
			t.Errorf("%s rejected on the wire:\n%s", name, r)
		}
	}
}

// TestVerifyWireRejectsGarbage: a section that does not parse never
// reaches the verifier; core.ParseTPP refuses it.
func TestVerifyWireRejectsGarbage(t *testing.T) {
	var tpp core.TPP
	if n, err := core.ParseTPP([]byte{1, 2, 3}, &tpp); err == nil {
		t.Fatalf("truncated section parsed (%d bytes): %+v", n, tpp)
	}
}
