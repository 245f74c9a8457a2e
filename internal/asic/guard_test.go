package asic_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Two tenants with identically tenant-relative programs must land in
// disjoint physical SRAM, a forged address outside the partition must
// read as poison and store to nowhere, and the operator must keep the
// unguarded identity view.
func TestGuardedViewIsolation(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)

	g1, err := sw.GrantTenant(1, guard.DefaultACL(), 64, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sw.GrantTenant(2, guard.DefaultACL(), 64, 1, 8)
	if err != nil {
		t.Fatal(err)
	}

	v1 := sw.GuardedViewForTesting(nil, 0, 1)
	v2 := sw.GuardedViewForTesting(nil, 0, 2)

	// Both tenants write "their" word 0; physically they are different
	// words of the bank.
	if err := v1.Store(mem.SRAMBase, 0xA1); err != nil {
		t.Fatal(err)
	}
	if err := v2.Store(mem.SRAMBase, 0xB2); err != nil {
		t.Fatal(err)
	}
	if got := sw.SRAM(mem.SRAMIndex(g1.Partition.Base)); got != 0xA1 {
		t.Fatalf("tenant 1 word 0 = %#x at its partition base, want 0xA1", got)
	}
	if got := sw.SRAM(mem.SRAMIndex(g2.Partition.Base)); got != 0xB2 {
		t.Fatalf("tenant 2 word 0 = %#x at its partition base, want 0xB2", got)
	}
	if got, _ := v1.Load(mem.SRAMBase); got != 0xA1 {
		t.Fatalf("tenant 1 reads %#x, want its own 0xA1", got)
	}

	// A forged address past the 64-word window: load poisons, store
	// vanishes — and crucially neither touches tenant 2's partition,
	// which starts 64 words in.
	got, err := v1.Load(mem.SRAMBase + 64)
	if err != nil || got != guard.Poison {
		t.Fatalf("out-of-partition load = %#x, %v; want poison, nil", got, err)
	}
	if err := v1.Store(mem.SRAMBase+64, 0xEE1); err != nil {
		t.Fatalf("denied store returned error %v; fail-forward wants nil", err)
	}
	if got := sw.SRAM(mem.SRAMIndex(g2.Partition.Base)); got != 0xB2 {
		t.Fatalf("tenant 2's word clobbered to %#x", got)
	}

	// Shared state: stats readable, port scratch not writable under
	// DefaultACL — the store vanishes without an error.
	if _, err := v1.Load(mem.QueueBase + mem.QueueBytes); err != nil {
		t.Fatalf("stats load denied: %v", err)
	}
	if err := v1.Store(mem.PortBase+mem.PortScratchBase, 7); err != nil {
		t.Fatal(err)
	}
	if sw.Port(0).Scratch(0) != 0 {
		t.Fatal("DefaultACL tenant wrote port scratch")
	}

	// CondStore relocates and serializes like a plain store in the
	// tenant's window, and poisons when denied.
	cs := v1.(interface {
		CondStore(mem.Addr, uint32, uint32) (uint32, error)
	})
	if old, err := cs.CondStore(mem.SRAMBase+1, 0, 42); err != nil || old != 0 {
		t.Fatalf("CondStore in window: old=%d err=%v", old, err)
	}
	if got := sw.SRAM(mem.SRAMIndex(g1.Partition.Base) + 1); got != 42 {
		t.Fatalf("CondStore landed at %#x", got)
	}
	if old, err := cs.CondStore(mem.SRAMBase+64, 0, 1); err != nil || old != guard.Poison {
		t.Fatalf("denied CondStore: old=%#x err=%v; want poison, nil", old, err)
	}

	// The operator sees the bank unrelocated: tenant 1's word under its
	// physical address.
	vop := sw.GuardedViewForTesting(nil, 0, guard.Operator)
	if got, _ := vop.Load(g1.Partition.Base); got != 0xA1 {
		t.Fatalf("operator reads %#x at tenant 1's base", got)
	}

	// An unknown tenant (never granted) is denied everything.
	v9 := sw.GuardedViewForTesting(nil, 0, 9)
	if got, _ := v9.Load(mem.QueueBase); got != guard.Poison {
		t.Fatalf("unknown tenant read %#x, want poison", got)
	}
}

// A hostile program executed end to end must forward with
// FlagAccessFault, and every denial must reconcile exactly across the
// switch counter, the per-tenant metric, the guard table and the span
// stream.
func TestGuardEndToEndDenialReconciles(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true, Metrics: reg, Trace: tr})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())
	h1.NIC.SetTenant(3)

	if _, err := sw.GrantTenant(3, guard.DefaultACL(), 32, 1, 8); err != nil {
		t.Fatal(err)
	}

	// Two denials per execution: a store into forged SRAM far past the
	// 32-word window, and a load of the same word.
	forged := uint16(mem.SRAMBase + 0x700)
	prog := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: forged, B: 0},
		{Op: core.OpLOAD, A: forged, B: 1},
	}, 2)
	prog.SetWord(0, 0xBAD)

	var echoed *core.TPP
	h2.HandleDefault(func(p *core.Packet) {
		if p.TPP != nil {
			echoed = p.TPP
		}
	})
	h1.Send(&core.Packet{
		Eth: core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP: prog,
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h1.IP, Dst: h2.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	})
	sim.RunUntil(20 * netsim.Millisecond)

	if echoed == nil {
		t.Fatal("hostile TPP did not forward — the gate must never stall the dataplane")
	}
	if echoed.Flags&core.FlagAccessFault == 0 {
		t.Fatal("FlagAccessFault not set")
	}
	if echoed.Flags&core.FlagError != 0 {
		t.Fatal("fail-forward denial raised FlagError")
	}
	if got := echoed.Word(1); got != guard.Poison {
		t.Fatalf("denied load recorded %#x, want poison", got)
	}
	// Nothing physically changed.
	if got := sw.SRAM(0x700); got != 0 {
		t.Fatalf("forged store landed: %#x", got)
	}

	// counter == metric == table == span count == 2.
	if got := sw.TPPsDenied(); got != 2 {
		t.Fatalf("TPPsDenied = %d, want 2", got)
	}
	if got := counterRow(t, reg, "switch/1/tpps_denied"); got != 2 {
		t.Fatalf("tpps_denied metric = %d", got)
	}
	if got := counterRow(t, reg, "switch/1/tenant/3/tpps_denied"); got != 2 {
		t.Fatalf("per-tenant metric = %d", got)
	}
	if got := sw.Guard().Denied(3); got != 2 {
		t.Fatalf("table Denied(3) = %d", got)
	}
	var spans, writes int
	for _, ev := range tr.Events() {
		if ev.Stage == obs.StageAccessDeny {
			spans++
			if ev.B != 3 {
				t.Fatalf("span tenant = %d", ev.B)
			}
			if ev.A>>1 != uint64(forged) {
				t.Fatalf("span address = %#x", ev.A>>1)
			}
			if ev.A&1 == 1 {
				writes++
			}
		}
	}
	if spans != 2 || writes != 1 {
		t.Fatalf("access-deny spans = %d (writes %d), want 2 (1)", spans, writes)
	}
}

// With the guard on, the admission gate splits by tenant: a flooding
// tenant exhausts only its own bucket while another tenant's TPP still
// executes.
func TestGuardPerTenantAdmission(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true, TPPRate: 10})
	rogue, victim, dst := n.AddHost(), n.AddHost(), n.AddHost()
	n.LinkHost(rogue, sw, edge)
	n.LinkHost(victim, sw, edge)
	n.LinkHost(dst, sw, edge)
	n.PrimeL2(time1ms())
	rogue.NIC.SetTenant(1)
	victim.NIC.SetTenant(2)
	if _, err := sw.GrantTenant(1, guard.DefaultACL(), 8, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.GrantTenant(2, guard.DefaultACL(), 8, 1, 2); err != nil {
		t.Fatal(err)
	}

	send := func(h *endhost.Host) {
		h.Send(&core.Packet{
			Eth: core.Ethernet{Dst: dst.MAC, Src: h.MAC, Type: core.EtherTypeTPP},
			TPP: core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
			}, 1),
			IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h.IP, Dst: dst.IP},
			UDP: &core.UDP{SrcPort: 1, DstPort: 9},
		})
	}
	var flags []uint8
	var tenants []uint8
	dst.HandleDefault(func(p *core.Packet) {
		if p.TPP != nil {
			flags = append(flags, p.TPP.Flags)
			tenants = append(tenants, p.TPP.Tenant)
		}
	})

	// Six rapid rogue TPPs against a burst of 2 and 10/s refill, then
	// one victim TPP.
	for i := 0; i < 6; i++ {
		send(rogue)
	}
	send(victim)
	sim.RunUntil(50 * netsim.Millisecond)

	if len(flags) != 7 {
		t.Fatalf("delivered %d TPP packets, want 7 (throttled ones still forward)", len(flags))
	}
	var rogueThrottled, victimThrottled int
	for i, f := range flags {
		if f&core.FlagThrottled == 0 {
			continue
		}
		if tenants[i] == 1 {
			rogueThrottled++
		} else {
			victimThrottled++
		}
	}
	if rogueThrottled < 3 {
		t.Fatalf("rogue throttled %d of 6, want most of the flood", rogueThrottled)
	}
	if victimThrottled != 0 {
		t.Fatal("victim throttled by the rogue's flood")
	}
	if got := sw.Guard().Throttled(1); got != uint64(rogueThrottled) {
		t.Fatalf("table Throttled(1) = %d, flags saw %d", got, rogueThrottled)
	}
}

// GrantTenant passes a NaN or infinite weight to the guard, which
// refuses it: such a weight would switch off admission control for
// every tenant on the switch.
func TestGrantTenantRejectsNonFiniteWeight(t *testing.T) {
	sw := topo.NewNetwork(netsim.New(1)).AddSwitch(asic.Config{Ports: 2, Guard: true, TPPRate: 10})
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := sw.GrantTenant(1, guard.DefaultACL(), 8, w, 2); err == nil {
			t.Fatalf("GrantTenant accepted weight %v", w)
		}
		if _, ok := sw.Guard().Lookup(1); ok {
			t.Fatalf("weight %v left tenant 1 registered", w)
		}
	}
	if _, err := sw.GrantTenant(1, guard.DefaultACL(), 8, 1, 2); err != nil {
		t.Fatalf("finite weight after the rejections: %v", err)
	}
}

// Grants survive a crash-restart (they are config); the partition
// content and the admission buckets do not (they are soft state).
func TestGuardReboot(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true, TPPRate: 10})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)

	// An 8-word operator region at the base of the bank, the tenant's
	// partition packed right behind it.
	tally, err := sw.Allocator().Alloc("tally", 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.GrantTenant(5, guard.DefaultACL(), 16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Partition.Base != tally.End() {
		t.Fatalf("partition %+v not packed behind task region %+v", g.Partition, tally)
	}
	v := sw.GuardedViewForTesting(nil, 0, 5)
	if err := v.Store(mem.SRAMBase, 99); err != nil {
		t.Fatal(err)
	}
	// Drain the bucket.
	now := sim.Now()
	sw.Guard().Admit(5, now, 10)
	sw.Guard().Admit(5, now, 10)
	if sw.Guard().Admit(5, now, 10) {
		t.Fatal("bucket not drained")
	}

	sw.Reboot(netsim.Millisecond)
	sim.RunUntil(sim.Now() + 10*netsim.Millisecond)

	got, ok := sw.Guard().Lookup(5)
	if !ok || got.Partition != g.Partition {
		t.Fatalf("grant lost across reboot: %+v, %v", got, ok)
	}
	if sw.SRAM(mem.SRAMIndex(g.Partition.Base)) != 0 {
		t.Fatal("partition content survived the wipe")
	}
	if !sw.Guard().Admit(5, sim.Now(), 10) {
		t.Fatal("bucket not refilled by boot")
	}
	// The task region is soft state and went with the wipe; the
	// partition still owns its words, so a re-allocation too big for
	// the gap in front of it lands behind it, not inside it.
	if _, ok := sw.Allocator().Lookup("tally"); ok {
		t.Fatal("task region survived reboot")
	}
	if held := sw.Allocator().Held(); !slices.Contains(held, mem.Held{Owner: mem.Owner{Tenant: 5}, Region: g.Partition}) {
		t.Fatalf("regions held after reboot = %v, want tenant 5's partition %+v", held, g.Partition)
	}
	again, err := sw.Allocator().Alloc("tally", 12)
	if err != nil {
		t.Fatal(err)
	}
	if again.Base != g.Partition.End() {
		t.Fatalf("post-reboot task region %+v, want behind partition %+v", again, g.Partition)
	}
}

// Teardown zeroes the partition before the words can be re-granted.
func TestRevokeTenantZeroes(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)

	g, err := sw.GrantTenant(1, guard.DefaultACL(), 16, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := sw.GuardedViewForTesting(nil, 0, 1)
	for i := 0; i < 16; i++ {
		if err := v.Store(mem.SRAMBase+mem.Addr(i), 0x5EC); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.RevokeTenant(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if got := sw.SRAM(mem.SRAMIndex(g.Partition.Base) + i); got != 0 {
			t.Fatalf("word %d leaked %#x after revoke", i, got)
		}
	}
	// The successor tenant reuses the gap and reads zeros.
	g2, err := sw.GrantTenant(2, guard.DefaultACL(), 16, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Partition != g.Partition {
		t.Fatalf("gap not reused: %+v vs %+v", g2.Partition, g.Partition)
	}
	v2 := sw.GuardedViewForTesting(nil, 0, 2)
	if got, _ := v2.Load(mem.SRAMBase); got != 0 {
		t.Fatalf("successor read predecessor residue %#x", got)
	}
}

// A guarded switch with no tenants behaves exactly like an unguarded
// one for untenanted (operator) traffic.
func TestGuardOperatorCompat(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Guard: true})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	var echoed *core.TPP
	h2.HandleDefault(func(p *core.Packet) {
		if p.TPP != nil {
			echoed = p.TPP
		}
	})
	prog := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: uint16(mem.SRAMBase + 7), B: 0},
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, 2)
	prog.SetWord(0, 1234)
	h1.Send(&core.Packet{
		Eth: core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP: prog,
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h1.IP, Dst: h2.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	})
	sim.RunUntil(20 * netsim.Millisecond)
	if echoed == nil {
		t.Fatal("no delivery")
	}
	if echoed.Flags&(core.FlagAccessFault|core.FlagError) != 0 {
		t.Fatalf("operator traffic flagged: %#x", echoed.Flags)
	}
	if sw.SRAM(7) != 1234 {
		t.Fatal("operator store did not land at its physical address")
	}
	if sw.TPPsDenied() != 0 {
		t.Fatal("operator access denied")
	}
}
