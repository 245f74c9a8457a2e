package agent

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcpu"
	"repro/internal/topo"
)

func fleet(t *testing.T) (*netsim.Sim, *topo.Network, []*asic.Switch) {
	t.Helper()
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	var sws []*asic.Switch
	for i := 0; i < 3; i++ {
		sws = append(sws, n.AddSwitch(asic.Config{Ports: 4}))
	}
	n.LinkSwitches(sws[0], sws[1], topo.Mbps(10, 0))
	n.LinkSwitches(sws[1], sws[2], topo.Mbps(10, 0))
	return sim, n, sws
}

func TestRegisterCongruentRegions(t *testing.T) {
	_, _, sws := fleet(t)
	a := New(sws...)
	rcpTask, err := a.Register("rcp", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ndbTask, err := a.Register("ndb", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same region on every switch.
	for _, sw := range sws {
		r, ok := sw.Allocator().Lookup("rcp")
		if !ok || r != rcpTask.Region {
			t.Fatalf("switch %d rcp region %+v, want %+v", sw.ID(), r, rcpTask.Region)
		}
	}
	// Non-overlapping.
	if rcpTask.Region.End() > ndbTask.Region.Base && ndbTask.Region.End() > rcpTask.Region.Base {
		t.Fatal("task regions overlap")
	}
	if len(rcpTask.ScratchWords) != 1 || len(ndbTask.ScratchWords) != 0 {
		t.Fatalf("scratch assignment: %v %v", rcpTask.ScratchWords, ndbTask.ScratchWords)
	}
}

func TestRegisterConflicts(t *testing.T) {
	_, _, sws := fleet(t)
	a := New(sws...)
	if _, err := a.Register("t", 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Register("t", 8, 0); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := a.Register("huge", mem.SRAMWords, 0); err == nil {
		t.Fatal("oversized registration accepted")
	}
	if _, err := a.Register("greedy", 0, mem.PortScratchWords+1); err == nil {
		t.Fatal("scratch over-allocation accepted")
	}
	// Rollback left the allocators clean.
	if _, err := a.Register("t2", 8, 0); err != nil {
		t.Fatalf("post-failure registration broken: %v", err)
	}
}

// A switch that already holds a local region under the task's name
// makes Register fail there; the rollback must release only what
// Register itself allocated, never the foreign region.
func TestRegisterRollbackSparesForeignRegion(t *testing.T) {
	_, _, sws := fleet(t)
	foreign, err := sws[1].Allocator().Alloc("x", 8)
	if err != nil {
		t.Fatal(err)
	}
	a := New(sws...)
	if _, err := a.Register("x", 16, 0); err == nil {
		t.Fatal("registration over a held name accepted")
	}
	if got, ok := sws[1].Allocator().Lookup("x"); !ok || got != foreign {
		t.Fatalf("rollback freed the foreign region: %+v, %v", got, ok)
	}
	if _, ok := sws[0].Allocator().Lookup("x"); ok {
		t.Fatal("rollback leaked the region allocated on switch 0")
	}
}

func TestScratchExhaustionRollsBackSRAM(t *testing.T) {
	_, _, sws := fleet(t)
	a := New(sws...)
	if _, err := a.Register("eat", 0, mem.PortScratchWords); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Register("late", 16, 1); err == nil {
		t.Fatal("scratch exhaustion not detected")
	}
	for _, sw := range sws {
		if _, ok := sw.Allocator().Lookup("late"); ok {
			t.Fatal("failed registration leaked SRAM")
		}
	}
}

func TestUnregisterReleases(t *testing.T) {
	_, _, sws := fleet(t)
	a := New(sws...)
	task, _ := a.Register("tmp", 32, 2)
	_ = task
	if err := a.Unregister("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := a.Unregister("tmp"); err == nil {
		t.Fatal("double unregister succeeded")
	}
	if _, ok := a.Lookup("tmp"); ok {
		t.Fatal("task still visible")
	}
	again, err := a.Register("tmp2", 32, mem.PortScratchWords)
	if err != nil {
		t.Fatalf("resources not released: %v", err)
	}
	if len(again.ScratchWords) != mem.PortScratchWords {
		t.Fatal("scratch words not recycled")
	}
}

func TestSeedScratchAndTPPVisibility(t *testing.T) {
	sim, _, sws := fleet(t)
	a := New(sws...)
	task, err := a.Register("rcp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed each wired port's slot with its capacity, the §2.2
	// initialization.
	if err := a.SeedScratchFunc(task, 0, func(sw *asic.Switch, port int) uint32 {
		return sw.Port(port).Channel().RateBytes()
	}); err != nil {
		t.Fatal(err)
	}
	addr, err := task.ScratchAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	// A TPP reading that address on switch 0 port 0 sees the seeded
	// capacity.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(addr)},
	}, 1)
	view := sws[0].ViewForTesting(nil, 0)
	if res := tcpu.Exec(tpp, view); res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if got := tpp.Word(0); got != 1_250_000 {
		t.Fatalf("TPP read %d, want seeded capacity 1250000", got)
	}
	_ = sim

	if err := a.SeedScratch(task, 5, 1); err == nil {
		t.Fatal("seeding unassigned slot succeeded")
	}
	if _, err := task.ScratchAddr(9); err == nil {
		t.Fatal("ScratchAddr out of range accepted")
	}
}

func TestSecureEdge(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	p1 := n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(100, 0))
	n.PrimeL2(netsim.Millisecond)

	SecureEdge(EdgePort{Switch: sw, Port: p1})
	if sw.Port(p1).Trusted() {
		t.Fatal("edge port still trusted")
	}
	// A TPP injected from the untrusted host is stripped.
	h1.Send(&core.Packet{
		Eth: core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP: core.NewTPP(core.AddrStack, nil, 1),
		IP:  &core.IPv4{TTL: 8, Proto: core.ProtoUDP, Src: h1.IP, Dst: h2.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 2},
	})
	sim.RunUntil(sim.Now() + 10*netsim.Millisecond)
	if sw.TPPsStripped() != 1 {
		t.Fatalf("TPPsStripped = %d", sw.TPPsStripped())
	}
	_ = endhost.ProbeEchoPort // keep the import honest if ports change
}

func TestSwitchesAndSeedScratchValue(t *testing.T) {
	_, _, sws := fleet(t)
	a := New(sws...)
	if got := a.Switches(); len(got) != 3 {
		t.Fatalf("Switches = %d", len(got))
	}
	task, err := a.Register("seeded", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SeedScratch(task, 1, 777); err != nil {
		t.Fatal(err)
	}
	for _, sw := range sws {
		for p := 0; p < sw.Ports(); p++ {
			if !sw.Port(p).Wired() {
				continue
			}
			if sw.Port(p).Scratch(task.ScratchWords[1]) != 777 {
				t.Fatalf("switch %d port %d not seeded", sw.ID(), p)
			}
		}
	}
	if err := a.SeedScratchFunc(task, 9, nil); err == nil {
		t.Fatal("bad slot accepted")
	}
}
