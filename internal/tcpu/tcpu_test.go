package tcpu

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// fakeView is a map-backed memory view: statistics namespaces behave as
// read-only, SRAM and port scratch as writable, mirroring the real
// protection map.
type fakeView struct {
	words map[mem.Addr]uint32
}

func newFakeView() *fakeView { return &fakeView{words: make(map[mem.Addr]uint32)} }

func (v *fakeView) Load(a mem.Addr) (uint32, error) {
	if mem.NamespaceOf(a) == mem.NSInvalid {
		return 0, mem.ErrUnmapped(a, false)
	}
	return v.words[a], nil
}

func (v *fakeView) Store(a mem.Addr, val uint32) error {
	if mem.NamespaceOf(a) == mem.NSInvalid {
		return mem.ErrUnmapped(a, true)
	}
	if !mem.Writable(a) {
		return &mem.AccessError{Addr: a, Write: true, Cause: mem.ReadOnly}
	}
	v.words[a] = val
	return nil
}

func (v *fakeView) CondStore(a mem.Addr, cond, val uint32) (uint32, error) {
	old, err := v.Load(a)
	if err == nil && old == cond {
		err = v.Store(a, val)
	}
	return old, err
}

// lockedView adds an atomic CondStore, as the ASIC's memory bus does.
type lockedView struct {
	mu sync.Mutex
	fakeView
}

func (v *lockedView) CondStore(a mem.Addr, cond, val uint32) (uint32, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old, err := v.Load(a)
	if err != nil {
		return 0, err
	}
	if old == cond {
		if err := v.Store(a, val); err != nil {
			return 0, err
		}
	}
	return old, nil
}

func (v *lockedView) Store(a mem.Addr, val uint32) error {
	// Plain stores also go through the bus lock in the real ASIC; the
	// fake only needs CondStore to be atomic for the tests.
	return v.fakeView.Store(a, val)
}

var (
	queueSizeAddr = mem.PortBase + mem.PortQueueSize
	switchIDAddr  = mem.SwitchBase + mem.SwitchID
	sramAddr      = mem.SRAMBase + 4
	rateRegAddr   = mem.PortBase + mem.PortScratchBase
)

func TestPushAdvancesSP(t *testing.T) {
	// The Figure 1 walk: PUSH [Queue:QueueSize] on three hops, SP
	// advancing 0x0 -> 0x4 -> 0x8 -> 0xc.
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(queueSizeAddr)},
	}, 3)
	for hop, q := range []uint32{0x00, 0xa0, 0x0e} {
		view.words[queueSizeAddr] = q
		res := Config{}.Exec(tpp, view)
		if res.Fault != nil || res.Halted {
			t.Fatalf("hop %d: %+v", hop, res)
		}
		if want := uint16(4 * (hop + 1)); tpp.Ptr != want {
			t.Fatalf("hop %d: SP = %#x, want %#x", hop, tpp.Ptr, want)
		}
	}
	for i, want := range []uint32{0x00, 0xa0, 0x0e} {
		if got := tpp.Word(i); got != want {
			t.Errorf("mem[%d] = %#x, want %#x", i, got, want)
		}
	}
}

func TestPushOverflowFaults(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(queueSizeAddr)},
	}, 1)
	if res := (Config{}).Exec(tpp, view); res.Fault != nil {
		t.Fatalf("first push failed: %v", res.Fault)
	}
	res := Config{}.Exec(tpp, view)
	if res.Fault == nil {
		t.Fatal("overflowing push did not fault")
	}
	if tpp.Flags&core.FlagError == 0 {
		t.Fatal("FlagError not set on fault")
	}
}

func TestPopMovesValueToSwitch(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(sramAddr)},
	}, 2)
	tpp.SetWord(0, 1234)
	tpp.Ptr = 4
	res := Config{}.Exec(tpp, view)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if tpp.Ptr != 0 {
		t.Errorf("SP after POP = %d", tpp.Ptr)
	}
	if view.words[sramAddr] != 1234 {
		t.Errorf("switch word = %d", view.words[sramAddr])
	}
}

func TestPopEmptyStackFaults(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(sramAddr)},
	}, 2)
	if res := (Config{}).Exec(tpp, view); res.Fault == nil {
		t.Fatal("POP on empty stack did not fault")
	}
}

func TestPushPopRequireStackMode(t *testing.T) {
	view := newFakeView()
	for _, op := range []core.Opcode{core.OpPUSH, core.OpPOP} {
		tpp := core.NewTPP(core.AddrHop, []core.Instruction{{Op: op, A: uint16(sramAddr)}}, 4)
		tpp.HopLen = 4
		if res := (Config{}).Exec(tpp, view); res.Fault == nil {
			t.Errorf("%v in hop mode did not fault", op)
		}
	}
}

func TestLoadHopAddressing(t *testing.T) {
	// "LOAD [Switch:SwitchID], [Packet:hop[1]] will copy the switch ID
	// into PacketMemory[1] on the first hop, PacketMemory[17] on the
	// second hop" (with 16-byte hops; we use word indexes).
	view := newFakeView()
	tpp := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: uint16(switchIDAddr), B: 1},
	}, 8)
	tpp.HopLen = 16 // 4 words per hop
	view.words[switchIDAddr] = 0xA
	res := Config{}.Exec(tpp, view)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if tpp.Ptr != 1 {
		t.Fatalf("hop counter = %d, want 1", tpp.Ptr)
	}
	view.words[switchIDAddr] = 0xB
	if res := (Config{}).Exec(tpp, view); res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if got := tpp.Word(1); got != 0xA {
		t.Errorf("hop 0 slot = %#x, want 0xA", got)
	}
	if got := tpp.Word(5); got != 0xB {
		t.Errorf("hop 1 slot = %#x, want 0xB", got)
	}
}

func TestStoreWritesSwitchMemory(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: uint16(rateRegAddr), B: 0},
	}, 1)
	tpp.SetWord(0, 125_000)
	res := Config{}.Exec(tpp, view)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if view.words[rateRegAddr] != 125_000 {
		t.Fatalf("rate register = %d", view.words[rateRegAddr])
	}
	if res.Stores != 1 {
		t.Fatalf("Stores = %d", res.Stores)
	}
}

func TestStoreToReadOnlyFaults(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: uint16(queueSizeAddr), B: 0},
	}, 1)
	res := Config{}.Exec(tpp, view)
	if res.Fault == nil {
		t.Fatal("store to a statistics word must fault")
	}
	if !strings.Contains(res.Fault.Error(), "read-only") {
		t.Fatalf("unexpected fault: %v", res.Fault)
	}
}

func TestCEXECGate(t *testing.T) {
	// §2.2 phase 3: CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Bottleneck
	// followed by a STORE executes only on the bottleneck switch.
	view := newFakeView()
	view.words[switchIDAddr] = 7
	mk := func(target uint32) *core.TPP {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpCEXEC, A: uint16(switchIDAddr), B: 0},
			{Op: core.OpSTORE, A: uint16(rateRegAddr), B: 2},
		}, 3)
		tpp.SetWord(0, 0xFFFFFFFF) // mask
		tpp.SetWord(1, target)     // value
		tpp.SetWord(2, 999)        // rate to install
		return tpp
	}

	res := Config{}.Exec(mk(7), view)
	if res.Halted || res.Fault != nil || view.words[rateRegAddr] != 999 {
		t.Fatalf("matching CEXEC: %+v, reg=%d", res, view.words[rateRegAddr])
	}

	view.words[rateRegAddr] = 0
	res = Config{}.Exec(mk(8), view)
	if !res.Halted {
		t.Fatal("non-matching CEXEC did not halt")
	}
	if res.Executed != 1 {
		t.Fatalf("Executed = %d, want 1 (STORE skipped)", res.Executed)
	}
	if view.words[rateRegAddr] != 0 {
		t.Fatal("STORE after failed CEXEC executed")
	}
	if res.Fault != nil {
		t.Fatal("failed CEXEC is not a fault")
	}
}

func TestCEXECMasking(t *testing.T) {
	view := newFakeView()
	view.words[switchIDAddr] = 0x12345678
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(switchIDAddr), B: 0},
		{Op: core.OpPUSH, A: uint16(switchIDAddr)},
	}, 3)
	tpp.SetWord(0, 0x0000FF00) // mask: third byte
	tpp.SetWord(1, 0x00005600)
	res := Config{}.Exec(tpp, view)
	if res.Halted {
		t.Fatal("masked compare should match")
	}
	if tpp.Ptr == 0 {
		t.Fatal("PUSH after matching CEXEC did not run")
	}
}

func TestCSTORESemantics(t *testing.T) {
	view := newFakeView()
	view.words[sramAddr] = 10
	mk := func(cond, src uint32) *core.TPP {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpCSTORE, A: uint16(sramAddr), B: 0},
		}, 3)
		tpp.SetWord(0, cond)
		tpp.SetWord(1, src)
		return tpp
	}

	// Matching condition: store happens, old value written back.
	tpp := mk(10, 42)
	res := Config{}.Exec(tpp, view)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if view.words[sramAddr] != 42 {
		t.Fatalf("CSTORE did not store: %d", view.words[sramAddr])
	}
	if tpp.Word(2) != 10 {
		t.Fatalf("old value not written back: %d", tpp.Word(2))
	}
	if res.Stores != 1 {
		t.Fatalf("Stores = %d", res.Stores)
	}

	// Non-matching condition: no store, old value still reported.
	tpp = mk(10, 7)
	res = Config{}.Exec(tpp, view)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if view.words[sramAddr] != 42 {
		t.Fatalf("CSTORE stored despite mismatch: %d", view.words[sramAddr])
	}
	if tpp.Word(2) != 42 {
		t.Fatalf("old value not written back: %d", tpp.Word(2))
	}
	if res.Stores != 0 {
		t.Fatalf("Stores = %d", res.Stores)
	}
}

func TestADDAccumulates(t *testing.T) {
	view := newFakeView()
	view.words[queueSizeAddr] = 100
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpADD, A: uint16(queueSizeAddr), B: 0},
	}, 1)
	tpp.SetWord(0, 11)
	if res := (Config{}).Exec(tpp, view); res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if got := tpp.Word(0); got != 111 {
		t.Fatalf("ADD result = %d", got)
	}
}

// TestSUBSubtracts: SUB sets pkt[B] -= sw[A] in uint32 arithmetic,
// wrapping below zero, with one switch-memory load.
func TestSUBSubtracts(t *testing.T) {
	view := newFakeView()
	view.words[queueSizeAddr] = 100
	for _, tc := range []struct{ pkt, want uint32 }{
		{150, 50},
		{11, 1<<32 - 89}, // 11 - 100 wraps
	} {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpSUB, A: uint16(queueSizeAddr), B: 0},
		}, 1)
		tpp.SetWord(0, tc.pkt)
		res := (Config{}).Exec(tpp, view)
		if res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if got := tpp.Word(0); got != tc.want || res.Loads != 1 {
			t.Fatalf("%d - 100 = %d with %d loads, want %d with 1", tc.pkt, got, res.Loads, tc.want)
		}
		if view.words[queueSizeAddr] != 100 {
			t.Fatalf("SUB wrote switch memory: %d", view.words[queueSizeAddr])
		}
	}
}

func TestProgramLengthLimit(t *testing.T) {
	view := newFakeView()
	ins := make([]core.Instruction, 6)
	for i := range ins {
		ins[i] = core.Instruction{Op: core.OpNOP}
	}
	tpp := core.NewTPP(core.AddrStack, ins, 1)
	if res := (Config{}).Exec(tpp, view); res.Fault == nil {
		t.Fatal("6 instructions must exceed the default 5-instruction limit")
	}
	if res := (Config{MaxInstructions: 16}).Exec(tpp, view); res.Fault != nil {
		t.Fatalf("larger device limit should accept: %v", res.Fault)
	}
}

func TestUnmappedAddressFaults(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: 0xFFF}, // inside PortAbs window: mapped
	}, 1)
	if res := (Config{}).Exec(tpp, view); res.Fault != nil {
		t.Fatalf("PortAbs read should work on fake view: %v", res.Fault)
	}
}

func TestHopCounterAdvancesEvenWhenHalted(t *testing.T) {
	view := newFakeView()
	view.words[switchIDAddr] = 1
	tpp := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(switchIDAddr), B: 0},
	}, 4)
	tpp.HopLen = 8
	tpp.SetWord(0, 0xFFFFFFFF)
	tpp.SetWord(1, 99) // never matches
	res := Config{}.Exec(tpp, view)
	if !res.Halted {
		t.Fatal("expected halt")
	}
	if tpp.Ptr != 1 {
		t.Fatalf("hop counter = %d, want 1", tpp.Ptr)
	}
}

func TestCyclesModel(t *testing.T) {
	// Figure 5: k instructions retire in k+3 cycles (4-cycle latency,
	// 1 instruction/cycle throughput).
	view := newFakeView()
	for k := 1; k <= 5; k++ {
		ins := make([]core.Instruction, k)
		for i := range ins {
			ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(queueSizeAddr)}
		}
		tpp := core.NewTPP(core.AddrStack, ins, k)
		res := Config{}.Exec(tpp, view)
		if res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if want := PipelineLatency + k - 1; res.Cycles != want {
			t.Errorf("k=%d: Cycles = %d, want %d", k, res.Cycles, want)
		}
		if !res.WithinBudget() {
			t.Errorf("k=%d: exceeds the 300-cycle budget", k)
		}
	}
	// Empty program: zero cycles.
	empty := core.NewTPP(core.AddrStack, nil, 0)
	if res := (Config{}).Exec(empty, view); res.Cycles != 0 {
		t.Errorf("empty program cycles = %d", res.Cycles)
	}
	// A successful CSTORE stalls one extra cycle.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCSTORE, A: uint16(sramAddr), B: 0},
	}, 3)
	res := Config{}.Exec(tpp, view)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if want := PipelineLatency + 1; res.Cycles != want {
		t.Errorf("CSTORE cycles = %d, want %d", res.Cycles, want)
	}
}

func TestConcurrentCSTOREExactlyOneWinner(t *testing.T) {
	// §2.2: "we support a conditional store instruction to provide a
	// stronger (linearizable) notion of consistency".  N writers race
	// to CSTORE their id into a slot initialized to 0; exactly one
	// must win each round.
	view := &lockedView{fakeView: *newFakeView()}
	const writers = 16
	const rounds = 50
	for round := 0; round < rounds; round++ {
		view.words[sramAddr] = 0
		var wg sync.WaitGroup
		wins := make(chan uint32, writers)
		for w := 1; w <= writers; w++ {
			wg.Add(1)
			go func(id uint32) {
				defer wg.Done()
				tpp := core.NewTPP(core.AddrStack, []core.Instruction{
					{Op: core.OpCSTORE, A: uint16(sramAddr), B: 0},
				}, 3)
				tpp.SetWord(0, 0)  // cond: unclaimed
				tpp.SetWord(1, id) // src: my id
				res := Config{}.Exec(tpp, view)
				if res.Fault != nil {
					t.Errorf("writer %d: %v", id, res.Fault)
					return
				}
				if tpp.Word(2) == 0 { // observed old value: I won
					wins <- id
				}
			}(uint32(w))
		}
		wg.Wait()
		close(wins)
		var winners []uint32
		for id := range wins {
			winners = append(winners, id)
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d winners (%v), want exactly 1", round, len(winners), winners)
		}
		if view.words[sramAddr] != winners[0] {
			t.Fatalf("round %d: slot holds %d, winner was %d", round, view.words[sramAddr], winners[0])
		}
	}
}

func TestExecResultCounts(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(switchIDAddr)},
		{Op: core.OpPUSH, A: uint16(queueSizeAddr)},
		{Op: core.OpPOP, A: uint16(sramAddr)},
	}, 4)
	res := Config{}.Exec(tpp, view)
	if res.Executed != 3 || res.Loads != 2 || res.Stores != 1 {
		t.Fatalf("counts = %+v", res)
	}
}

func TestCheckLineRate(t *testing.T) {
	// The paper's own example: 64 ports x 10GbE at 64-byte packets is
	// "about a billion packets/second".
	c := CheckLineRate(64, 10, 64, 5, 1.0)
	if c.PacketsPerSecond < 0.9e9 || c.PacketsPerSecond > 1.1e9 {
		t.Fatalf("pps = %.3g, the paper says ~1e9", c.PacketsPerSecond)
	}
	// Five instructions per packet at 1 GHz needs several parallel
	// TCPU pipelines — which the per-port-group pipeline replication
	// of real ASICs provides.
	if c.TCPUsNeeded < 5 || c.TCPUsNeeded > 6 {
		t.Fatalf("TCPUs needed = %d", c.TCPUsNeeded)
	}
	// Sustained throughput is what line rate needs: with 1
	// instruction retiring per cycle, each pipeline must only have at
	// least insPerPkt cycles between packet arrivals (the 4-cycle
	// latency overlaps across back-to-back packets — that is the
	// point of pipelining).
	if c.PerPacketBudgetCycles < 5 {
		t.Fatalf("per-packet budget %.1f cycles below 5 instructions", c.PerPacketBudgetCycles)
	}
	// A single-port 1GbE switch needs just one TCPU.
	if one := CheckLineRate(1, 1, 64, 5, 1.0); one.TCPUsNeeded != 1 {
		t.Fatalf("small switch needs %d TCPUs", one.TCPUsNeeded)
	}
}
