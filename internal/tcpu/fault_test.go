package tcpu

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// faultyView fails every access after `okOps` successful ones, to walk
// each opcode's error path.
type faultyView struct {
	okOps int
	calls int
}

var errInjected = errors.New("injected memory fault")

func (v *faultyView) access() error {
	v.calls++
	if v.calls > v.okOps {
		return errInjected
	}
	return nil
}

func (v *faultyView) Load(a mem.Addr) (uint32, error) {
	if err := v.access(); err != nil {
		return 0, err
	}
	return 1, nil
}

func (v *faultyView) Store(a mem.Addr, val uint32) error { return v.access() }

func (v *faultyView) CondStore(a mem.Addr, cond, val uint32) (uint32, error) {
	old, err := v.Load(a)
	if err == nil && old == cond {
		err = v.Store(a, val)
	}
	return old, err
}

func TestEveryOpcodeSurfacesMemoryFaults(t *testing.T) {
	sram := uint16(mem.SRAMBase)
	cases := []struct {
		name string
		tpp  func() *core.TPP
		ok   int // accesses that succeed before the fault
	}{
		{"LOAD", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpLOAD, A: sram, B: 0}}, 1)
		}, 0},
		{"STORE", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpSTORE, A: sram, B: 0}}, 1)
		}, 0},
		{"PUSH", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPUSH, A: sram}}, 1)
		}, 0},
		{"POP", func() *core.TPP {
			p := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPOP, A: sram}}, 1)
			p.Ptr = 4
			return p
		}, 0},
		{"CSTORE-load", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCSTORE, A: sram, B: 0}}, 3)
		}, 0},
		{"CSTORE-store", func() *core.TPP {
			p := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCSTORE, A: sram, B: 0}}, 3)
			p.SetWord(0, 1) // cond matches the view's load value 1
			return p
		}, 1},
		{"CEXEC", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCEXEC, A: sram, B: 0}}, 2)
		}, 0},
		{"ADD", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpADD, A: sram, B: 0}}, 1)
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tpp := c.tpp()
			res := Config{}.Exec(tpp, &faultyView{okOps: c.ok})
			if res.Fault == nil {
				t.Fatal("fault not surfaced")
			}
			if !errors.Is(res.Fault, errInjected) {
				t.Fatalf("unexpected fault: %v", res.Fault)
			}
			if tpp.Flags&core.FlagError == 0 {
				t.Fatal("FlagError not set")
			}
		})
	}
}

func TestCSTOREOutOfRangeOperands(t *testing.T) {
	view := newFakeView()
	// B+2 (the result slot) falls outside packet memory.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCSTORE, A: uint16(sramAddr), B: 0},
	}, 2)
	if res := (Config{}).Exec(tpp, view); res.Fault == nil {
		t.Fatal("out-of-range CSTORE result slot accepted")
	}
	// cond slot itself out of range.
	tpp2 := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCSTORE, A: uint16(sramAddr), B: 5},
	}, 2)
	if res := (Config{}).Exec(tpp2, view); res.Fault == nil {
		t.Fatal("out-of-range CSTORE cond slot accepted")
	}
}

func TestCEXECOutOfRangeOperands(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(switchIDAddr), B: 1},
	}, 2) // value slot B+1 = 2 out of range
	if res := (Config{}).Exec(tpp, view); res.Fault == nil {
		t.Fatal("out-of-range CEXEC operand accepted")
	}
}

func TestLoadStoreOutOfRangeOperands(t *testing.T) {
	view := newFakeView()
	for _, op := range []core.Opcode{core.OpLOAD, core.OpSTORE, core.OpADD} {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: op, A: uint16(sramAddr), B: 9},
		}, 2)
		if res := (Config{}).Exec(tpp, view); res.Fault == nil {
			t.Fatalf("%v with out-of-range packet word accepted", op)
		}
	}
}

func TestInvalidTPPFaultsBeforeExecution(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, nil, 1)
	tpp.Mode = 9 // structurally invalid
	res := Config{}.Exec(tpp, view)
	if res.Fault == nil || res.Executed != 0 {
		t.Fatalf("invalid TPP executed: %+v", res)
	}
}

func TestHopModeOutOfRangeEffectiveAddress(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: uint16(switchIDAddr), B: 0},
	}, 4)
	tpp.HopLen = 8 // two words per hop
	// Two hops fit in the 4-word memory; the third hop's effective
	// word (4) is out of range.
	for hop := 0; hop < 2; hop++ {
		if res := (Config{}).Exec(tpp, view); res.Fault != nil {
			t.Fatalf("hop %d faulted early: %v", hop, res.Fault)
		}
	}
	res := Config{}.Exec(tpp, view)
	if res.Fault == nil {
		t.Fatal("overflowing hop write accepted")
	}
	// Hop counter still advanced (the packet moved on).
	if tpp.Ptr != 3 {
		t.Fatalf("hop counter = %d", tpp.Ptr)
	}
}

// Regression: a wire-supplied stack pointer past the end of packet
// memory must make POP fault, not panic — switches execute
// attacker-controlled programs and cannot crash.
func TestPOPWithStackPointerPastMemoryFaults(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(sramAddr)},
	}, 2)
	tpp.Ptr = 48 // aligned, beyond the 8 bytes of packet memory
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("POP panicked: %v", r)
		}
	}()
	res := Config{}.Exec(tpp, view)
	if res.Fault == nil {
		t.Fatal("POP past packet memory accepted")
	}
	if tpp.Flags&core.FlagError == 0 {
		t.Fatal("fault did not set FlagError")
	}
}
