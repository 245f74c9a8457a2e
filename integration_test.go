package repro

import (
	"math"
	"slices"
	"testing"

	"repro/internal/accounting"
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/ndb"
	"repro/internal/netsim"
	"repro/internal/rcp"
	"repro/internal/topo"
)

// TestMultipleTasksCoexist is the §3.2 "Multiple tasks" claim end to
// end: RCP* congestion control, ndb forwarding verification and a
// CSTORE accounting counter run concurrently on one network, with the
// fabric controller keeping their switch state disjoint.  Each task
// must behave exactly as it does alone.
func TestMultipleTasksCoexist(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)

	// Dumbbell with a 10 Mb/s bottleneck.
	swCfg := asic.Config{Ports: 10, QueueCapBytes: 125_000}
	a := n.AddSwitch(swCfg)
	swCfg.Guard = true // b also hosts a tenant; operator tasks run on it unchanged
	b := n.AddSwitch(swCfg)
	aPort, _ := n.LinkSwitches(a, b, topo.Mbps(10, 10*netsim.Millisecond))
	edge := topo.Mbps(100, netsim.Millisecond)

	// Two RCP* flows.
	var rcpSenders, rcpReceivers []*endhost.Host
	for i := 0; i < 2; i++ {
		s := n.AddHost()
		n.LinkHost(s, a, edge)
		rcpSenders = append(rcpSenders, s)
		r := n.AddHost()
		n.LinkHost(r, b, edge)
		rcpReceivers = append(rcpReceivers, r)
	}
	// One host pair for ndb-instrumented traffic and the accounting
	// counter.
	dbgSrc := n.AddHost()
	n.LinkHost(dbgSrc, a, edge)
	dbgDst := n.AddHost()
	dbgPort := n.LinkHost(dbgDst, b, edge)
	n.PrimeL2(50 * netsim.Millisecond)

	// The fabric controller provisions the accounting counter on both
	// switches, and its Verify holds the region to one base on each;
	// the RCP rate registers are seeded with every wired port's
	// capacity, the §2.2 control-plane initialization.
	fab := fabric.New(sim)
	fab.Register("a", a)
	fab.Register("b", b)
	acctSpec := []fabric.Service{{Name: "accounting", Words: 4}}
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{
		{Device: "a", Services: acctSpec},
		{Device: "b", Services: acctSpec},
	}}
	if res, finished := fab.ConvergeWithin(spec, fabric.ConvergeConfig{}, netsim.Second); !finished || !res.Converged {
		t.Fatalf("provisioning: finished=%v %+v", finished, res)
	}
	st, derr := fab.ReadState("b")
	if derr != nil {
		t.Fatal(derr)
	}
	acct := st.Services[0].Region
	rcp.InitRateRegisters(a, b)

	// A tenant partition on b, carved by the same allocator after the
	// controller's congruent service regions.
	grant, err := b.GrantTenant(7, guard.DefaultACL(), 32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Task 1: RCP* congestion control.
	recvBytes := make([]uint64, 2)
	for i := 0; i < 2; i++ {
		i := i
		rcpReceivers[i].Handle(rcp.StarDataPort, func(p *core.Packet) {
			recvBytes[i] += uint64(p.PayloadLen())
		})
		ctl := rcp.NewStarController(sim, rcpSenders[i],
			endhost.NewProber(rcpSenders[i]),
			rcpReceivers[i].MAC, rcpReceivers[i].IP)
		ctl.Start()
	}

	// Task 2: ndb verification of the dbg pair's path (installed as
	// TCAM rules so matched-entry metadata exists).
	ctl := ndb.NewController()
	ctl.InstallPath(dbgDst.IP, 10, []ndb.PathHop{
		{Switch: a, OutPort: aPort},
		{Switch: b, OutPort: dbgPort},
	})
	var ndbTraces, ndbViolations int
	dbgDst.HandleDefault(func(p *core.Packet) {
		if p.TPP == nil {
			return
		}
		ndbTraces++
		ndbViolations += len(ctl.VerifyTrace(dbgDst.IP, ndb.ParseTrace(p.TPP)))
	})
	sim.Every(sim.Now()+20*netsim.Millisecond, 20*netsim.Millisecond, func() {
		pkt := dbgSrc.NewPacket(dbgDst.MAC, dbgDst.IP, 6000, 6001, 200)
		ndb.Instrument(pkt, 4)
		dbgSrc.Send(pkt)
	})

	// Task 3: an accounting counter in the controller-provisioned SRAM on
	// switch b, incremented across the bottleneck.
	counter := accounting.NewCounter(endhost.NewProber(dbgSrc),
		dbgDst.MAC, dbgDst.IP, b.ID(), acct.Base, accounting.Atomic)
	increments := 0
	var pump func(uint32)
	pump = func(uint32) {
		increments++
		if increments < 40 {
			counter.Add(1, pump)
		}
	}
	counter.Add(1, pump)

	sim.RunUntil(sim.Now() + 20*netsim.Second)

	// RCP*: both flows near their fair share of the bottleneck
	// (1.25 MB/s / 2 each), measured over the last 10 seconds... use
	// total goodput over 20s as the robust check.
	total := float64(recvBytes[0]+recvBytes[1]) / 20
	if total < 0.8*1.25e6 {
		t.Fatalf("RCP* goodput collapsed under multi-task load: %.0f B/s", total)
	}
	fairness := math.Abs(float64(recvBytes[0])-float64(recvBytes[1])) /
		float64(recvBytes[0]+recvBytes[1])
	if fairness > 0.15 {
		t.Fatalf("RCP* flows diverged: %v vs %v bytes", recvBytes[0], recvBytes[1])
	}

	// ndb: every trace verified clean.
	if ndbTraces < 100 {
		t.Fatalf("ndb traces: %d", ndbTraces)
	}
	if ndbViolations != 0 {
		t.Fatalf("ndb violations on a conforming fabric: %d", ndbViolations)
	}

	// Accounting: exact.
	if got := b.SRAM(mem.SRAMIndex(acct.Base)); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	if counter.Failures != 0 {
		t.Fatalf("counter abandoned %d updates", counter.Failures)
	}

	// Isolation: the accounting region and the RCP rate registers are
	// disjoint; the counter value never leaked into a rate register.
	held := b.Allocator().Held()
	if !slices.Contains(held, mem.Held{Owner: mem.Owner{Task: "fabric/accounting"}, Region: acct}) {
		t.Fatalf("SRAM ownership lost: held %v", held)
	}
	if !slices.Contains(held, mem.Held{Owner: mem.Owner{Tenant: 7}, Region: grant.Partition}) {
		t.Fatalf("tenant partition lost: held %v", held)
	}
	if grant.Partition.Base < acct.End() {
		t.Fatalf("tenant partition %+v overlaps the accounting region %+v", grant.Partition, acct)
	}
	if reg := a.Port(aPort).Scratch(0); reg == 40 {
		t.Fatal("rate register holds the counter value: state collided")
	}
}

// TestAblationFacts pins the simulated quantities EXPERIMENTS.md
// "Ablations" quotes.  Goodput: 6000 packets of 958 payload bytes are
// offered to a 10 Mb/s link, more than it carries in the 3 s window, so
// what arrives is limited by wire overhead, not demand; instrumenting
// every packet with the §2.1 telemetry TPP (5-hop budget) is the trade
// the paper's 20-byte overhead figure is about.  Wire bytes: a per-hop
// queue-size record needs a word per hop (7-hop budget), an in-packet
// MAX aggregate one word for any path length.
func TestAblationFacts(t *testing.T) {
	goodputMbps := func(instrument bool) float64 {
		sim := netsim.New(1)
		n := topo.NewNetwork(sim)
		sw := n.AddSwitch(asic.Config{Ports: 4})
		h1, h2 := n.AddHost(), n.AddHost()
		h1.NIC.SetCapacity(1 << 16)
		n.LinkHost(h1, sw, topo.Mbps(10, 0))
		n.LinkHost(h2, sw, topo.Mbps(10, 0))
		n.PrimeL2(netsim.Millisecond)
		var payload uint64
		h2.HandleDefault(func(p *core.Packet) { payload += uint64(p.PayloadLen()) })
		for i := 0; i < 6000; i++ {
			pkt := h1.NewPacket(h2.MAC, h2.IP, 1, 2, 958)
			if instrument {
				microburst.Instrument(pkt, 5)
			}
			h1.Send(pkt)
		}
		start := sim.Now()
		sim.RunUntil(start + 3*netsim.Second)
		return float64(payload) * 8 / 1e6 / (sim.Now() - start).Seconds()
	}
	wireBytes := func(op core.Opcode, memWords int) float64 {
		ins := []core.Instruction{{Op: op, A: uint16(mem.QueueBase + mem.QueueBytes)}}
		return float64(core.NewTPP(core.AddrStack, ins, memWords).WireLen())
	}
	for _, c := range []struct {
		name           string
		got, want, tol float64
	}{
		{"goodput Mb/s, plain", goodputMbps(false), 9.575, 0.001},
		{"goodput Mb/s, every packet instrumented", goodputMbps(true), 9.243, 0.001},
		{"wire bytes, per-hop records over 7 hops", wireBytes(core.OpPUSH, 7), 44, 0},
		{"wire bytes, MAX aggregate", wireBytes(core.OpMAX, 1), 20, 0},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
