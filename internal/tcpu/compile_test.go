package tcpu

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// experimentPrograms returns one TPP per distinct program the
// experiments inject, reconstructed from their construction sites, plus
// the header state (pre-filled memory, stack pointer, hop-mode fields)
// each sender sets.  They are both the differential-test corpus and the
// FuzzCompile seeds, so the compiled path is proven identical to the
// interpreter on exactly the programs the paper's tasks run.
func experimentPrograms() map[string]*core.TPP {
	sramStat := uint16(mem.SRAMBase + 3)
	swID := uint16(mem.SwitchBase + mem.SwitchID)
	swEpoch := uint16(mem.SwitchBase + mem.SwitchEpoch)
	progs := map[string]*core.TPP{}

	// microburst.TelemetryProgram: the §2.1 per-hop queue snapshot.
	progs["microburst-telemetry"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, 4)

	// microburst.BreakdownProgram: queue bytes plus drain capacity.
	progs["microburst-breakdown"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortCapacity)},
	}, 8)

	// ndb.TraceProgram: the §2.3 four-word per-hop trace.
	progs["ndb-trace"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: swID},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedID)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketInputPort)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedVer)},
	}, 20)

	// wireless.SNRProgram: per-hop port SNR.
	progs["wireless-snr"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortSNR)},
	}, 3)

	// rcp.StarController.sendUpdate: gated rate write.
	rcpUpdate := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: swID, B: 0},
		{Op: core.OpSTORE, A: sramStat, B: 2},
	}, 3)
	rcpUpdate.SetWord(0, 0xFFFFFFFF)
	rcpUpdate.SetWord(1, 7)
	rcpUpdate.SetWord(2, 123456)
	rcpUpdate.Ptr = 12
	progs["rcp-star-update"] = rcpUpdate

	// accounting.Counter.readRetry: gated value+epoch read.
	acctRead := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: swID, B: 0},
		{Op: core.OpLOAD, A: sramStat, B: 2},
		{Op: core.OpLOAD, A: swEpoch, B: 3},
	}, 4)
	acctRead.SetWord(0, 0xFFFFFFFF)
	acctRead.SetWord(1, 7)
	progs["accounting-read"] = acctRead

	// accounting linearizable add: gated CSTORE.
	acctAdd := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: swID, B: 0},
		{Op: core.OpCSTORE, A: sramStat, B: 2},
	}, 5)
	acctAdd.SetWord(0, 0xFFFFFFFF)
	acctAdd.SetWord(1, 7)
	acctAdd.SetWord(2, 10)
	acctAdd.SetWord(3, 14)
	progs["accounting-cstore"] = acctAdd

	// accounting racy add: gated blind STORE.
	acctRacy := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: swID, B: 0},
		{Op: core.OpSTORE, A: sramStat, B: 2},
	}, 3)
	acctRacy.SetWord(0, 0xFFFFFFFF)
	acctRacy.SetWord(1, 7)
	acctRacy.SetWord(2, 99)
	progs["accounting-racy"] = acctRacy

	// inband scenario RTT measure: single LOAD.
	progs["inband-measure"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpLOAD, A: swID, B: 0},
	}, 1)

	// inband.Writer: gated CSTORE plus epoch read.
	inbandW := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: swID, B: 0},
		{Op: core.OpCSTORE, A: sramStat, B: 2},
		{Op: core.OpLOAD, A: swEpoch, B: 5},
	}, 6)
	inbandW.SetWord(0, 0xFFFFFFFF)
	inbandW.SetWord(1, 7)
	inbandW.SetWord(2, 4)
	inbandW.SetWord(3, 5)
	progs["inband-writer"] = inbandW

	// endhost.GatedChunkProgram: gate plus a LOAD sweep.
	gated := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: swID, B: 0},
		{Op: core.OpLOAD, A: sramStat, B: 3},
		{Op: core.OpLOAD, A: sramStat + 1, B: 4},
	}, 5)
	gated.SetWord(0, 0xFFFFFFFF)
	gated.SetWord(1, 7)
	progs["endhost-gated-chunk"] = gated

	// endhost.CollectProgram: a PUSH per statistic.
	progs["endhost-collect"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortCapacity)},
	}, 6)

	// faults rogue tenant: a blind forged STORE.
	rogue := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: sramStat, B: 0},
	}, 1)
	rogue.SetWord(0, 0xDEADBEEF)
	progs["faults-rogue-write"] = rogue

	// Hop-addressed variant of the ndb trace (the DESIGN.md §5
	// addressing-mode ablation).
	hop := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: swID, B: 0},
		{Op: core.OpLOAD, A: uint16(mem.QueueBase + mem.QueueBytes), B: 1},
	}, 8)
	hop.HopLen = 8
	progs["hop-mode-trace"] = hop

	return progs
}

// diffViews returns two identically pre-seeded views, one for the
// interpreter and one for the compiled program.
func diffViews() (*fakeView, *fakeView) {
	seed := func() *fakeView {
		v := newFakeView()
		v.words[mem.Addr(mem.SwitchBase+mem.SwitchID)] = 7
		v.words[mem.Addr(mem.QueueBase+mem.QueueBytes)] = 1500
		v.words[mem.Addr(mem.SRAMBase+3)] = 10
		return v
	}
	return seed(), seed()
}

// diffExec runs t through the interpreter and the compiled path under
// cfg and fails the test unless every observable — the Result, the
// mutated TPP, and the view's memory — is identical.
func diffExec(t *testing.T, tpp *core.TPP, cfg Config) {
	t.Helper()
	ti, tc := tpp.Clone(), tpp.Clone()
	vi, vc := diffViews()

	ri := cfg.Exec(ti, vi)
	rc := Compile(cfg, tc).Exec(tc, vc)

	if (ri.Fault == nil) != (rc.Fault == nil) {
		t.Fatalf("fault mismatch: interpreter %v, compiled %v", ri.Fault, rc.Fault)
	}
	if ri.Fault != nil && ri.Fault.Error() != rc.Fault.Error() {
		t.Fatalf("fault text mismatch:\n  interpreter: %v\n  compiled:    %v", ri.Fault, rc.Fault)
	}
	ri.Fault, rc.Fault = nil, nil
	if fmt.Sprintf("%+v", ri) != fmt.Sprintf("%+v", rc) {
		t.Fatalf("result mismatch:\n  interpreter: %+v\n  compiled:    %+v", ri, rc)
	}
	if ti.Ptr != tc.Ptr || ti.Flags != tc.Flags || ti.HopLen != tc.HopLen {
		t.Fatalf("TPP header mismatch: interpreter ptr=%d flags=%x, compiled ptr=%d flags=%x",
			ti.Ptr, ti.Flags, tc.Ptr, tc.Flags)
	}
	if !bytes.Equal(ti.Mem, tc.Mem) {
		t.Fatalf("packet memory mismatch:\n  interpreter: %x\n  compiled:    %x", ti.Mem, tc.Mem)
	}
	if len(vi.words) != len(vc.words) {
		t.Fatalf("view word counts differ: %d vs %d", len(vi.words), len(vc.words))
	}
	for a, w := range vi.words {
		if vc.words[a] != w {
			t.Fatalf("view word %v: interpreter %d, compiled %d", a, w, vc.words[a])
		}
	}
}

// diffSpans is diffExec at the grain of one instruction: it runs every
// instruction prefix of tpp through both paths, so the two must agree
// on each instruction's span — the cycle it retires in, the loads,
// stores and stall it adds, whether it halts or faults — and not only
// on the totals of the whole execution.
func diffSpans(t *testing.T, tpp *core.TPP, cfg Config) {
	t.Helper()
	for k := 0; k <= len(tpp.Ins); k++ {
		prefix := tpp.Clone()
		prefix.Ins = prefix.Ins[:k]
		diffExec(t, prefix, cfg)
	}
}

// diffAt compares the two paths on whole executions (spans=false) or
// instruction by instruction (spans=true).
func diffAt(t *testing.T, tpp *core.TPP, cfg Config, spans bool) {
	t.Helper()
	if spans {
		diffSpans(t, tpp, cfg)
		return
	}
	diffExec(t, tpp, cfg)
}

// TestCompiledMatchesInterpreter proves the compiled path behaviorally
// identical to the interpreter on every experiment program, across
// device limits (including ones the programs exceed), on whole
// executions and per instruction.
func TestCompiledMatchesInterpreter(t *testing.T) {
	for name, prog := range experimentPrograms() {
		for _, maxIns := range []int{0, 2, 16} {
			for _, spans := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/max%d/spans=%v", name, maxIns, spans), func(t *testing.T) {
					diffAt(t, prog, Config{MaxInstructions: maxIns}, spans)
				})
			}
		}
	}
}

// TestCompiledMatchesInterpreterOnFaults covers shapes the verifier
// would reject but a switch must still fault identically on: bad
// version, bad mode, misaligned header fields, stack misuse, unknown
// opcodes, and unknown opcodes shadowed by a halting CEXEC.
func TestCompiledMatchesInterpreterOnFaults(t *testing.T) {
	sram := uint16(mem.SRAMBase)
	mk := func(mut func(*core.TPP)) *core.TPP {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		}, 2)
		mut(tpp)
		return tpp
	}
	cases := map[string]*core.TPP{
		"bad-version":    mk(func(t *core.TPP) { t.Version = 9 }),
		"bad-mode":       mk(func(t *core.TPP) { t.Mode = 3 }),
		"misaligned-ptr": mk(func(t *core.TPP) { t.Ptr = 3 }),
		"push-overflow":  mk(func(t *core.TPP) { t.Ptr = 8 }),
		"pop-underflow": core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPOP, A: sram}}, 2),
		"push-in-hop-mode": func() *core.TPP {
			t := core.NewTPP(core.AddrHop, []core.Instruction{
				{Op: core.OpPUSH, A: sram}}, 2)
			t.HopLen = 4
			return t
		}(),
		"unknown-opcode": core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: 200, A: sram}}, 1),
		"unknown-opcode-after-halting-cexec": func() *core.TPP {
			t := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
				{Op: 200, A: sram},
			}, 2)
			t.SetWord(0, 0xFFFFFFFF)
			t.SetWord(1, 12345) // never matches SwitchID 7: CEXEC halts first
			return t
		}(),
		"packet-mem-oob": core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 9}}, 2),
		"too-long": core.NewTPP(core.AddrStack, make([]core.Instruction, 7), 1),
		// Too long for a Cache to key: a switch falls back to Config.Exec.
		"beyond-cache-key": core.NewTPP(core.AddrStack, make([]core.Instruction, MaxCachedInstructions+1), 1),
	}
	for name, prog := range cases {
		for _, spans := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spans=%v", name, spans), func(t *testing.T) {
				diffAt(t, prog, Config{MaxInstructions: 5}, spans)
			})
		}
	}
}

// FuzzCompile is the differential fuzz target the compilation pass is
// gated on: any parseable TPP must execute identically through the
// interpreter and the compiled path, under a fuzzed device limit.
// Seeds are the wire bytes of every experiment program.
func FuzzCompile(f *testing.F) {
	for _, prog := range experimentPrograms() {
		f.Add(prog.AppendTo(nil), uint8(5))
	}
	// A corrupt header and an unknown-opcode body, so the fault paths
	// start covered.
	bad := core.NewTPP(core.AddrStack, []core.Instruction{{Op: 99, A: 1, B: 1}}, 1)
	f.Add(bad.AppendTo(nil), uint8(1))

	f.Fuzz(func(t *testing.T, wire []byte, maxIns uint8) {
		var tpp core.TPP
		if _, err := core.ParseTPP(wire, &tpp); err != nil {
			return // not a TPP; parsing is fuzzed elsewhere
		}
		cfg := Config{MaxInstructions: int(maxIns % 32)}
		ti, tc := tpp.Clone(), tpp.Clone()
		vi, vc := diffViews()
		ri := cfg.Exec(ti, vi)
		rc := Compile(cfg, tc).Exec(tc, vc)

		if (ri.Fault == nil) != (rc.Fault == nil) {
			t.Fatalf("fault mismatch: interpreter %v, compiled %v", ri.Fault, rc.Fault)
		}
		if ri.Fault != nil && ri.Fault.Error() != rc.Fault.Error() {
			t.Fatalf("fault text mismatch: %v vs %v", ri.Fault, rc.Fault)
		}
		ri.Fault, rc.Fault = nil, nil
		if fmt.Sprintf("%+v", ri) != fmt.Sprintf("%+v", rc) {
			t.Fatalf("result mismatch:\n  interpreter: %+v\n  compiled:    %+v", ri, rc)
		}
		if ti.Ptr != tc.Ptr || ti.Flags != tc.Flags || !bytes.Equal(ti.Mem, tc.Mem) {
			t.Fatal("TPP state diverged between interpreter and compiled path")
		}
		for a, w := range vi.words {
			if vc.words[a] != w {
				t.Fatalf("view word %v diverged: %d vs %d", a, w, vc.words[a])
			}
		}
	})
}

// TestPrologueOutcomesAgree drives one TPP through both entry points of
// the one engine for every way the prologue can end — the verdict
// cached by Compile against the fresh validation of Config.Exec — alone
// and two at a time: which fault wins, and what the epilogue then does
// to the packet, must not depend on the entry point.  The spans=true
// leg also compares every instruction prefix (diffSpans).
func TestPrologueOutcomesAgree(t *testing.T) {
	type mut struct {
		name string
		f    func(*core.TPP)
	}
	muts := []mut{
		{"ok", func(*core.TPP) {}},
		{"too-long", func(t *core.TPP) { t.Ins = append(t.Ins, make([]core.Instruction, 5)...) }},
		{"beyond-cache-key", func(t *core.TPP) { t.Ins = make([]core.Instruction, MaxCachedInstructions+1) }},
		{"bad-version", func(t *core.TPP) { t.Version = 9 }},
		{"bad-mode", func(t *core.TPP) { t.Mode = 3 }},
		{"misaligned-mem", func(t *core.TPP) { t.Mem = t.Mem[:len(t.Mem)-1] }},
		{"misaligned-hoplen", func(t *core.TPP) { t.Mode, t.HopLen = core.AddrHop, 6 }},
		{"misaligned-ptr", func(t *core.TPP) { t.Ptr = 3 }},
		{"bad-operand", func(t *core.TPP) { t.Ins[1].B = core.MaxOperand + 1 }},
		{"bad-opcode", func(t *core.TPP) { t.Ins[0].Op = 200 }},
	}
	base := func() *core.TPP {
		return core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 1},
		}, 4)
	}
	for i, a := range muts {
		for _, b := range muts[i:] {
			for _, leg := range []struct {
				cfg   Config
				spans bool
			}{{Config{MaxInstructions: 5}, false}, {Config{MaxInstructions: 32}, false}, {Config{MaxInstructions: 5}, true}} {
				cfg := leg.cfg
				name := fmt.Sprintf("%s+%s/max%d/spans=%v", a.name, b.name, cfg.MaxInstructions, leg.spans)
				t.Run(name, func(t *testing.T) {
					tpp := base()
					a.f(tpp)
					b.f(tpp)
					ti, tc := tpp.Clone(), tpp.Clone()
					vi, vc := diffViews()
					ri := cfg.Exec(ti, vi)
					rc := Compile(cfg, tc).Exec(tc, vc)
					// core's validation errors are built per call, so they
					// compare by text; the device-limit fault is a sentinel
					// and must be the same value.
					if fmt.Sprint(ri.Fault) != fmt.Sprint(rc.Fault) ||
						(ri.Fault == ErrProgramTooLong) != (rc.Fault == ErrProgramTooLong) {
						t.Fatalf("fault: fresh %v, cached %v", ri.Fault, rc.Fault)
					}
					// (The two over-length rows fit a 32-instruction device
					// and run there, the second one past what a Cache keys.)
					if cfg.MaxInstructions == 5 && (a.name != "ok" || b.name != "ok") {
						if ri.Fault == nil || ri.Executed != 0 || ti.Flags&core.FlagError == 0 {
							t.Fatalf("prologue fault expected, got %+v flags %x", ri, ti.Flags)
						}
					}
					if ti.Flags != tc.Flags || ti.Ptr != tc.Ptr || ri.Cycles != rc.Cycles || ri.Executed != rc.Executed {
						t.Fatalf("fresh flags=%x ptr=%d cycles=%d executed=%d, cached flags=%x ptr=%d cycles=%d executed=%d",
							ti.Flags, ti.Ptr, ri.Cycles, ri.Executed, tc.Flags, tc.Ptr, rc.Cycles, rc.Executed)
					}
					if wantPtr := tpp.Ptr + 1; tpp.Mode == core.AddrHop && ti.Ptr != wantPtr {
						t.Fatalf("hop counter = %d after a prologue fault, want %d", ti.Ptr, wantPtr)
					}
					if leg.spans {
						diffSpans(t, tpp, cfg)
					}
				})
			}
		}
	}
}

// TestCompileAllocatesOnlyTheProgram: a Program is a verdict, not a
// translation — compiling a valid program allocates the Program and
// nothing per instruction.
func TestCompileAllocatesOnlyTheProgram(t *testing.T) {
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		{Op: core.OpCSTORE, A: uint16(mem.SRAMBase), B: 2},
		{Op: core.OpLOAD, A: uint16(mem.SRAMBase), B: 5},
	}, 8)
	var sink *Program
	if avg := testing.AllocsPerRun(200, func() { sink = Compile(Config{}, tpp) }); avg != 1 {
		t.Fatalf("Compile allocated %.1f objects, want exactly 1 (the Program)", avg)
	}
	if sink.preFault != nil || sink.insFault != nil {
		t.Fatalf("valid program compiled to a faulting verdict: %v / %v", sink.preFault, sink.insFault)
	}
}

// TestOneTranscriptionOfTheISA is a source check: every opcode's
// semantics are written once in this package, reached from one dispatch
// switch.  core.OpCSTORE (an opcode nothing else needs to name) may
// appear in exactly one non-test function body.
func TestOneTranscriptionOfTheISA(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "OpCSTORE" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" {
							bodies = append(bodies, fn.Name.Name)
							return false
						}
					}
					return true
				})
			}
		}
	}
	if len(bodies) != 1 || bodies[0] != "exec" {
		t.Fatalf("core.OpCSTORE is named in function bodies %v, want exactly [exec]: a second transcription of the ISA?", bodies)
	}
}

// TestCompiledExecZeroAlloc pins the allocation contract of a
// successful execution: running a program allocates nothing, through
// a compiled Program or through a fresh Config.Exec.
func TestCompiledExecZeroAlloc(t *testing.T) {
	cfg := Config{MaxInstructions: 16}
	tpp := experimentPrograms()["microburst-telemetry"]
	prog := Compile(cfg, tpp)
	view, _ := diffViews()
	for _, run := range []struct {
		name string
		exec func(*core.TPP, mem.View) Result
	}{{"compiled Exec", prog.Exec}, {"Config.Exec", cfg.Exec}} {
		if avg := testing.AllocsPerRun(200, func() {
			tpp.Ptr = 0
			if r := run.exec(tpp, view); r.Fault != nil {
				t.Fatal(r.Fault)
			}
		}); avg != 0 {
			t.Fatalf("%s allocated %.1f times per run, want 0", run.name, avg)
		}
	}
}

// TestCacheHitZeroAlloc pins the cache contract: once a program shape
// is compiled, looking it up again allocates nothing.
func TestCacheHitZeroAlloc(t *testing.T) {
	c := NewCache(Config{MaxInstructions: 16}, 0)
	tpp := experimentPrograms()["ndb-trace"]
	if c.Get(tpp) == nil {
		t.Fatal("Get returned nil for a cacheable program")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if c.Get(tpp) == nil {
			t.Fatal("cached Get returned nil")
		}
	}); avg != 0 {
		t.Fatalf("cache hit allocated %.1f times per run, want 0", avg)
	}
	if hits, _ := c.Stats(); hits == 0 {
		t.Fatal("no hits recorded")
	}
}

// TestCacheInvalidate checks that Invalidate forces recompilation (a
// fresh miss) while the hit/miss counters survive, so device-state
// transitions can be observed end to end.
func TestCacheInvalidate(t *testing.T) {
	c := NewCache(Config{MaxInstructions: 16}, 0)
	tpp := experimentPrograms()["microburst-telemetry"]
	p1 := c.Get(tpp)
	c.Get(tpp)
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d, want 1 hit, 1 miss", h, m)
	}
	c.Invalidate()
	if len(c.m) != 0 {
		t.Fatalf("%d entries after Invalidate, want 0", len(c.m))
	}
	p2 := c.Get(tpp)
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Fatalf("stats = %d/%d after invalidate, want 1 hit, 2 misses", h, m)
	}
	if p1 == p2 {
		t.Fatal("Invalidate did not force a fresh compilation")
	}
}

// TestCacheLRUEviction checks the capacity bound and LRU order.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(Config{MaxInstructions: 16}, 2)
	mk := func(a uint16) *core.TPP {
		return core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: a}}, 1)
	}
	c.Get(mk(1))
	c.Get(mk(2))
	c.Get(mk(1)) // 1 is now most recent
	c.Get(mk(3)) // evicts 2
	if len(c.m) != 2 {
		t.Fatalf("%d entries, want 2", len(c.m))
	}
	_, misses := c.Stats()
	c.Get(mk(1))
	if _, m := c.Stats(); m != misses {
		t.Fatal("program 1 was evicted, want it retained as most-recently-used")
	}
	c.Get(mk(2))
	if _, m := c.Stats(); m != misses+1 {
		t.Fatal("program 2 should have been the LRU eviction victim")
	}
}

// TestCacheKeyedOnDeviceConfig: the same wire program compiled under
// different device limits must behave per-device — a cache is bound to
// one config and bakes it into the compilation.
func TestCacheKeyedOnDeviceConfig(t *testing.T) {
	tpp := experimentPrograms()["ndb-trace"] // 4 instructions
	tight := NewCache(Config{MaxInstructions: 2}, 0)
	roomy := NewCache(Config{MaxInstructions: 16}, 0)
	view, _ := diffViews()

	if r := tight.Get(tpp).Exec(tpp.Clone(), view); !errors.Is(r.Fault, ErrProgramTooLong) {
		t.Fatalf("tight device fault = %v, want ErrProgramTooLong", r.Fault)
	}
	if r := roomy.Get(tpp).Exec(tpp.Clone(), view); r.Fault != nil {
		t.Fatalf("roomy device fault = %v, want nil", r.Fault)
	}
}

// TestCacheRefusesLongPrograms: programs beyond the keying bound fall
// back to the interpreter (nil) instead of being miskeyed.
func TestCacheRefusesLongPrograms(t *testing.T) {
	c := NewCache(Config{MaxInstructions: 64}, 0)
	long := core.NewTPP(core.AddrStack, make([]core.Instruction, MaxCachedInstructions+1), 1)
	if c.Get(long) != nil {
		t.Fatal("Get compiled a program longer than MaxCachedInstructions")
	}
}

// TestFaultSentinels is the regression test for the fault-path
// allocation fix: every fault class is its preallocated sentinel,
// returned as is (no per-fault formatting on the hot path), and both
// execution paths return the same one.
func TestFaultSentinels(t *testing.T) {
	sram := uint16(mem.SRAMBase)
	cases := []struct {
		name     string
		sentinel error
		tpp      func() *core.TPP
	}{
		{"too-long", ErrProgramTooLong, func() *core.TPP {
			return core.NewTPP(core.AddrStack, make([]core.Instruction, 7), 1)
		}},
		{"mode-mismatch", ErrModeMismatch, func() *core.TPP {
			tpp := core.NewTPP(core.AddrHop, []core.Instruction{
				{Op: core.OpPUSH, A: sram}}, 2)
			tpp.HopLen = 4
			return tpp
		}},
		{"stack-overflow", ErrStackOverflow, func() *core.TPP {
			tpp := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)}}, 1)
			tpp.Ptr = 4
			return tpp
		}},
		{"stack-underflow", ErrStackUnderflow, func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPOP, A: sram}}, 1)
		}},
		{"stack-oob", ErrStackOOB, func() *core.TPP {
			tpp := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPOP, A: sram}}, 1)
			tpp.Ptr = 8 // aligned, past the 4 bytes of packet memory
			return tpp
		}},
		{"packet-mem-oob", ErrPacketMemOOB, func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 9}}, 1)
		}},
	}
	cfg := Config{MaxInstructions: 5}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, compiled := range []bool{false, true} {
				tpp := c.tpp()
				var r Result
				if compiled {
					r = Compile(cfg, tpp).Exec(tpp, newFakeView())
				} else {
					r = cfg.Exec(tpp, newFakeView())
				}
				if r.Fault != c.sentinel {
					t.Fatalf("compiled=%v: fault = %v (%T), want the bare sentinel %v",
						compiled, r.Fault, r.Fault, c.sentinel)
				}
			}
		})
	}
}

// TestUnknownOpcodeSentinel covers the defense-in-depth runtime
// opcode fault directly: opcodes outside the instruction set are
// rejected statically by core.ValidateIns, so exec's unknown-opcode
// arm can only fire if the two sets ever diverge.  A hand-built
// Program whose verdict skips that validation reaches the arm, which
// must fault with the sentinel, not panic.
func TestUnknownOpcodeSentinel(t *testing.T) {
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.Opcode(200), A: uint16(mem.SRAMBase)}}, 1)
	p := &Program{n: len(tpp.Ins), mode: tpp.Mode, version: tpp.Version}
	r := p.Exec(tpp, newFakeView())
	if r.Fault != ErrUnknownOpcode || r.Executed != 1 {
		t.Fatalf("fault = %v after %d instruction(s), want ErrUnknownOpcode after 1", r.Fault, r.Executed)
	}
	if tpp.Flags&core.FlagError == 0 {
		t.Fatal("unknown opcode did not set FlagError")
	}
}

// TestFaultPathZeroAlloc pins the bugfix itself: a faulting packet on
// the hot path must not allocate — the old code built a
// fmt.Errorf per faulting packet, a DoS vector under a fault storm.
func TestFaultPathZeroAlloc(t *testing.T) {
	cfg := Config{MaxInstructions: 5}
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(mem.SRAMBase)}}, 1)
	view := newFakeView()
	prog := Compile(cfg, tpp)
	if avg := testing.AllocsPerRun(200, func() {
		tpp.Flags = 0
		if r := prog.Exec(tpp, view); r.Fault != ErrStackUnderflow {
			t.Fatalf("fault = %v", r.Fault)
		}
	}); avg != 0 {
		t.Fatalf("compiled fault path allocated %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		tpp.Flags = 0
		if r := cfg.Exec(tpp, view); r.Fault != ErrStackUnderflow {
			t.Fatalf("fault = %v", r.Fault)
		}
	}); avg != 0 {
		t.Fatalf("interpreter fault path allocated %.1f times per run, want 0", avg)
	}
}
