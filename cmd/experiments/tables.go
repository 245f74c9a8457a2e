package main

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcpu"
	"repro/internal/topo"
	"repro/internal/trace"
)

// runTable1 demonstrates every instruction of Table 1 on a live switch
// view, printing its architectural effect and its TCPU pipeline cost.
func runTable1(out *output) error {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 7, Ports: 2, TCPU: tcpu.Config{MaxInstructions: 8}})
	h := n.AddHost()
	n.LinkHost(h, sw, topo.Mbps(100, 0))
	sim.RunUntil(netsim.Millisecond)

	sramAddr := mem.SRAMBase + 0x10
	swID := mem.SwitchBase + mem.SwitchID
	qsize := mem.QueueBase + mem.QueueBytes

	type demo struct {
		name    string
		meaning string
		tpp     *core.TPP
		effect  func(*core.TPP, tcpu.Result) string
	}

	mkStack := func(ins []core.Instruction, words int) *core.TPP {
		return core.NewTPP(core.AddrStack, ins, words)
	}

	loadTPP := mkStack([]core.Instruction{{Op: core.OpLOAD, A: uint16(swID), B: 0}}, 1)
	pushTPP := mkStack([]core.Instruction{{Op: core.OpPUSH, A: uint16(qsize)}}, 1)
	storeTPP := mkStack([]core.Instruction{{Op: core.OpSTORE, A: uint16(sramAddr), B: 0}}, 1)
	storeTPP.SetWord(0, 4242)
	popTPP := mkStack([]core.Instruction{{Op: core.OpPOP, A: uint16(sramAddr)}}, 1)
	popTPP.SetWord(0, 777)
	popTPP.Ptr = 4
	cstoreTPP := mkStack([]core.Instruction{{Op: core.OpCSTORE, A: uint16(sramAddr), B: 0}}, 3)
	cstoreTPP.SetWord(0, 777) // cond: expect POP's value
	cstoreTPP.SetWord(1, 999) // src
	cexecTPP := mkStack([]core.Instruction{
		{Op: core.OpCEXEC, A: uint16(swID), B: 0},
		{Op: core.OpPUSH, A: uint16(swID)},
	}, 4)
	cexecTPP.SetWord(0, 0xFFFFFFFF)
	cexecTPP.SetWord(1, 7) // matches switch id 7
	cexecTPP.Ptr = 8       // stack begins after the two immediates

	demos := []demo{
		{"LOAD", "copy values from switch to packet", loadTPP,
			func(t *core.TPP, r tcpu.Result) string {
				return sprintf("pkt[0] = SwitchID = %d", t.Word(0))
			}},
		{"PUSH", "copy values from switch to packet (stack)", pushTPP,
			func(t *core.TPP, r tcpu.Result) string {
				return sprintf("pushed QueueSize=%d, SP 0->%d", t.Word(0), t.Ptr)
			}},
		{"STORE", "copy values from packet to switch", storeTPP,
			func(t *core.TPP, r tcpu.Result) string {
				return sprintf("SRAM[0x10] = %d", sw.SRAM(0x10))
			}},
		{"POP", "copy values from packet to switch (stack)", popTPP,
			func(t *core.TPP, r tcpu.Result) string {
				return sprintf("SRAM[0x10] = %d, SP 4->%d", sw.SRAM(0x10), t.Ptr)
			}},
		{"CSTORE", "conditional store for atomic operations", cstoreTPP,
			func(t *core.TPP, r tcpu.Result) string {
				return sprintf("old=%d matched cond, SRAM[0x10] = %d", t.Word(2), sw.SRAM(0x10))
			}},
		{"CEXEC", "conditionally execute subsequent instructions", cexecTPP,
			func(t *core.TPP, r tcpu.Result) string {
				return sprintf("id matched, executed %d instructions", r.Executed)
			}},
	}

	tbl := trace.NewTable("instruction", "meaning", "cycles", "effect")
	var csvRows [][]any
	for _, d := range demos {
		view := sw.ViewForTesting(nil, 0)
		res := (tcpu.Config{MaxInstructions: 8}).Exec(d.tpp, view)
		if res.Fault != nil {
			return res.Fault
		}
		tbl.Row(d.name, d.meaning, res.Cycles, d.effect(d.tpp, res))
		csvRows = append(csvRows, []any{d.name, d.meaning, res.Cycles})
	}
	out.printf("Table 1: the TPP instruction set, demonstrated on switch id=7\n%s", tbl.String())

	c := out.csv("table1.csv", "instruction", "meaning", "cycles")
	for _, r := range csvRows {
		c.Row(r...)
	}
	return nil
}

// runTable2 walks every statistic of the unified memory map on a
// lightly loaded switch, grouped by namespace as in Table 2.
func runTable2(out *output) error {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 3, Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 10*netsim.Microsecond))
	n.LinkHost(h2, sw, topo.Mbps(100, 10*netsim.Microsecond))
	n.PrimeL2(netsim.Millisecond)
	// Some traffic so the counters are alive.
	for i := 0; i < 50; i++ {
		h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 1000))
	}
	sim.RunUntil(sim.Now() + netsim.Second)

	view := sw.ViewForTesting(nil, 1)
	tbl := trace.NewTable("namespace", "statistic", "byte addr", "writable", "value")
	f := out.csv("table2.csv", "namespace", "statistic", "byte_addr", "writable", "value")
	for _, s := range mem.Symbols() {
		v, err := view.Load(s.Addr)
		if err != nil {
			return err
		}
		row := []any{mem.NamespaceOf(s.Addr).String(), s.Name, sprintf("%#x", s.Addr.ByteAddr()), s.Writable, v}
		tbl.Row(row...)
		f.Row(row...)
	}
	out.printf("Table 2: statistics namespaces (live values after 1s of traffic)\n%s", tbl.String())
	return nil
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
