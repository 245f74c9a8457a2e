package asic_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/guard"
	"repro/internal/l3"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// counterRow snapshots reg and returns the named counter row, failing
// the test when the row is missing: a renamed row must not read as 0.
func counterRow(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	m, ok := reg.Snapshot(0).Get(name)
	if !ok || m.Kind != obs.KindCounter {
		t.Fatalf("no counter row %q in the snapshot (ok=%v kind=%q)", name, ok, m.Kind)
	}
	return uint64(m.Value)
}

// tppPacket wraps tpp in a UDP frame from one host to another.
func tppPacket(from, to *endhost.Host, tpp *core.TPP) *core.Packet {
	return &core.Packet{
		Eth: core.Ethernet{Dst: to.MAC, Src: from.MAC, Type: core.EtherTypeTPP},
		TPP: tpp,
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: from.IP, Dst: to.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	}
}

// Every count a switch exports is the word its accessor returns, read
// at snapshot: after a run that moves each of them, row and accessor
// agree, and the set of row names is exactly the literal below — a
// renamed or dropped row fails here, not in a dashboard.
func TestCollectRowsAreTheAccessorsWords(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	reg := obs.NewRegistry()
	sw := n.AddSwitch(asic.Config{Ports: 2, Guard: true, TPPRate: 1, Metrics: reg})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())
	step := func() { sim.RunUntil(sim.Now() + 5*netsim.Millisecond) }

	// Denied, then throttled: tenant 3's one-token bucket runs its
	// forged store and load once, and its second TPP finds it empty.
	h1.NIC.SetTenant(3)
	if _, err := sw.GrantTenant(3, guard.DefaultACL(), 32, 1, 1); err != nil {
		t.Fatal(err)
	}
	forged := uint16(mem.SRAMBase + 0x700)
	for i := 0; i < 2; i++ {
		h1.Send(tppPacket(h1, h2, core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpSTORE, A: forged, B: 0},
			{Op: core.OpLOAD, A: forged, B: 1},
		}, 2)))
		step()
	}

	// CSTORE commit and a TCPU fault, both from the operator's host
	// (exempt from the gate): zeroed SRAM matches cond 0, and a PUSH from
	// an unmapped switch statistic faults.
	cstore := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCSTORE, A: uint16(mem.SRAMBase + 0x10), B: 0},
	}, 3)
	cstore.SetWord(1, 7)
	h2.Send(tppPacket(h2, h1, cstore))
	h2.Send(tppPacket(h2, h1, core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + 200)},
	}, 2)))
	step()

	// Stripped at an untrusted port.
	sw.Port(1).SetTrusted(false)
	h2.Send(tppPacket(h2, h1, queueProbe(2)))
	step()
	sw.Port(1).SetTrusted(true)

	// Spin edges: three packets of the watched flow, bit 0, 1, 0.
	sw.WatchSpin(h2.IP, h1.IP, mem.SRAMBase+0x100)
	for _, tos := range []uint8{0, core.SpinBit, 0} {
		pkt := h2.NewPacket(h1.MAC, h1.IP, 1, 2, 10)
		pkt.IP.TOS = tos
		h2.Send(pkt)
		step()
	}

	// TTL-expired on a routed destination, blackholed by a rule naming a
	// port the switch lacks.
	if err := sw.L3().Insert(h1.IP, 32, l3.Route{OutPort: 0}); err != nil {
		t.Fatal(err)
	}
	expiring := h2.NewPacket(h1.MAC, h1.IP, 1, 2, 10)
	expiring.IP.TTL = 1
	h2.Send(expiring)
	nowhere := core.IPv4Addr(10, 99, 0, 1)
	v, m := dstRule(nowhere)
	sw.TCAM().Insert(10, v, m, actionOut(5))
	h2.Send(h2.NewPacket(h1.MAC, nowhere, 1, 2, 10))
	step()

	// Reboot with a frame on the wire: it arrives at a dark switch.
	h2.Send(h2.NewPacket(h1.MAC, h1.IP, 1, 2, 10))
	sw.Reboot(netsim.Millisecond)
	step()

	want := map[string]uint64{
		"packets":              sw.PacketsSwitched(),
		"tpps_executed":        sw.TPPsExecuted(),
		"tpps_stripped":        sw.TPPsStripped(),
		"tpps_throttled":       sw.TPPsThrottled(),
		"tpps_denied":          sw.TPPsDenied(),
		"ttl_drops":            sw.TTLDrops(),
		"blackholes":           sw.Blackholes(),
		"reboots":              sw.Reboots(),
		"reboot_drops":         sw.RebootDrops(),
		"cstore_commits":       sw.CStoreCommits(),
		"spin_edges":           sw.SpinEdges(h2.IP, h1.IP),
		"spin_samples":         sw.SpinSamples(h2.IP, h1.IP),
		"tenant/3/tpps_denied": sw.Guard().Denied(3),
	}
	for name, acc := range want {
		if got := counterRow(t, reg, "switch/1/"+name); got != acc {
			t.Errorf("row %s = %d, accessor = %d", name, got, acc)
		}
		// The run moved every count.
		if acc == 0 {
			t.Errorf("the mixed run left %s at 0", name)
		}
	}
	// Counts with no accessor are read off their rows alone; the run
	// faulted once and had no paranoid verifier or 300-cycle program.
	for name, want := range map[string]uint64{"tpp_faults": 1, "tcpu_over_budget": 0, "tpps_rejected": 0} {
		if got := counterRow(t, reg, "switch/1/"+name); got != want {
			t.Errorf("row %s = %d, want %d", name, got, want)
		}
	}
	if sw.TPPsDenied() != 2 || sw.TPPsThrottled() != 1 || sw.CStoreCommits() != 1 ||
		sw.SpinEdges(h2.IP, h1.IP) != 2 {
		t.Errorf("denied %d throttled %d cstores %d spin edges %d, want 2 1 1 2",
			sw.TPPsDenied(), sw.TPPsThrottled(), sw.CStoreCommits(), sw.SpinEdges(h2.IP, h1.IP))
	}
	for i := 0; i < sw.Ports(); i++ {
		q := sw.Port(i).Queue()
		if got := counterRow(t, reg, fmt.Sprintf("switch/1/port/%d/tx_bytes", i)); got != q.DeqBytes || q.DeqBytes == 0 {
			t.Errorf("port %d tx_bytes row = %d, queue dequeued %d bytes", i, got, q.DeqBytes)
		}
		if got := counterRow(t, reg, fmt.Sprintf("switch/1/port/%d/drops", i)); got != q.DropPkts {
			t.Errorf("port %d drops row = %d, queue dropped %d", i, got, q.DropPkts)
		}
	}

	var names []string
	for _, m := range reg.Snapshot(int64(sim.Now())).Metrics {
		names = append(names, m.Name+" "+m.Kind)
	}
	if wantNames := []string{
		"switch/1/blackholes counter",
		"switch/1/cstore_commits counter",
		"switch/1/hop_latency_ns histogram",
		"switch/1/packets counter",
		"switch/1/port/0/drops counter",
		"switch/1/port/0/queue_depth_bytes histogram",
		"switch/1/port/0/tx_bytes counter",
		"switch/1/port/1/drops counter",
		"switch/1/port/1/queue_depth_bytes histogram",
		"switch/1/port/1/tx_bytes counter",
		"switch/1/reboot_drops counter",
		"switch/1/reboots counter",
		"switch/1/spin_edges counter",
		"switch/1/spin_samples counter",
		"switch/1/tcpu_cycles histogram",
		"switch/1/tcpu_over_budget counter",
		"switch/1/tenant/3/tpps_denied counter",
		"switch/1/tpp_faults counter",
		"switch/1/tpps_denied counter",
		"switch/1/tpps_executed counter",
		"switch/1/tpps_rejected counter",
		"switch/1/tpps_stripped counter",
		"switch/1/tpps_throttled counter",
		"switch/1/ttl_drops counter",
	}; !reflect.DeepEqual(names, wantNames) {
		t.Errorf("exported rows:\n%q\nwant:\n%q", names, wantNames)
	}
}

// A TPP sealed with a tenant id the switch never granted is denied
// everything.  The switch counts those denials — in total and under the
// id the TPP carried — while the guard table, which keeps state only for
// registered tenants, reads 0.
func TestUnregisteredTenantDenialsCountOnTheSwitch(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	reg := obs.NewRegistry()
	sw := n.AddSwitch(asic.Config{Ports: 2, Guard: true, Metrics: reg})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())
	h1.NIC.SetTenant(99)

	h1.Send(tppPacket(h1, h2, queueProbe(2)))
	sim.RunUntil(sim.Now() + 5*netsim.Millisecond)

	if got := sw.TPPsDenied(); got != 1 {
		t.Fatalf("TPPsDenied = %d, want 1", got)
	}
	if got := counterRow(t, reg, "switch/1/tpps_denied"); got != 1 {
		t.Fatalf("tpps_denied row = %d, want 1", got)
	}
	if got := counterRow(t, reg, "switch/1/tenant/99/tpps_denied"); got != 1 {
		t.Fatalf("tenant 99 row = %d, want 1", got)
	}
	if got := sw.Guard().Denied(99); got != 0 {
		t.Fatalf("Guard().Denied(99) = %d: the table keeps no state for unregistered tenants", got)
	}
}
