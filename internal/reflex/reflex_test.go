package reflex_test

import (
	"fmt"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/reflex"
	"repro/internal/tcam"
	"repro/internal/topo"
)

// rig is a 2x2 leaf-spine with two hosts per leaf and a reflex arm on
// leaf 0.  Leaf 0's uplinks are port 0 (spine 0, the primary) and
// port 1 (spine 1, the backup); its hosts sit on ports 2 and 3.  All
// forwarding is exact-match TCAM routes installed in the fabric
// controller band, so the arm's authorizations land on band entries.
type rig struct {
	sim          *netsim.Sim
	net          *topo.Network
	leaf, spine  []*asic.Switch
	h00, h01     *endhost.Host // leaf 0
	h10, h11     *endhost.Host // leaf 1
	arm          *reflex.Arm
	tracer       *obs.Tracer
	primaryEntry uint32 // leaf 0's band entry steering h10 via port 0
}

func baseConfig(tr *obs.Tracer) reflex.Config {
	return reflex.Config{DeadAfter: 4, Trace: tr}
}

func newRig(t *testing.T, cfg reflex.Config) *rig {
	t.Helper()
	sim := netsim.New(1)
	tracer := obs.NewTracer(1 << 16)
	edge := topo.Mbps(1000, 5*netsim.Microsecond)
	fab := topo.Mbps(1000, 10*netsim.Microsecond)
	n := topo.LeafSpine(sim, 2, 2, 2, edge, fab, topo.Uniform(asic.Config{Trace: tracer}), tracer)
	hosts, leaves, spines := n.LeafHosts, n.Leaves, n.Spines
	r := &rig{
		sim: sim, net: n.Network, leaf: leaves, spine: spines,
		h00: hosts[0][0], h01: hosts[0][1],
		h10: hosts[1][0], h11: hosts[1][1],
		tracer: tracer,
	}

	// Exact-match routes, everywhere, in the controller band.  Spine
	// port i faces leaf i; leaf uplink j faces spine j; leaf hosts sit
	// on ports 2 and 3.
	route := func(sw *asic.Switch, prio int, ip uint32, port int) uint32 {
		v, m := tcam.DstIPRule(ip)
		return sw.TCAM().Insert(fabric.BandBase+prio, v, m, tcam.Action{OutPort: port})
	}
	r.primaryEntry = route(leaves[0], 10, r.h10.IP, 0)
	route(leaves[0], 11, r.h11.IP, 0)
	route(leaves[0], 12, r.h00.IP, 2)
	route(leaves[0], 13, r.h01.IP, 3)
	route(leaves[1], 10, r.h10.IP, 2)
	route(leaves[1], 11, r.h11.IP, 3)
	route(leaves[1], 12, r.h00.IP, 0)
	route(leaves[1], 13, r.h01.IP, 0)
	for _, sp := range spines {
		route(sp, 10, r.h10.IP, 1)
		route(sp, 11, r.h11.IP, 1)
		route(sp, 12, r.h00.IP, 0)
		route(sp, 13, r.h01.IP, 0)
	}

	arm, err := reflex.Attach(sim, leaves[0], cfg)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// Both uplinks are monitored via the same reflector: h00, reached
	// back through either spine, proving the full round trip of each
	// monitored egress direction.
	if err := arm.Monitor(0, r.h00.MAC, r.h00.IP); err != nil {
		t.Fatalf("Monitor(0): %v", err)
	}
	if err := arm.Monitor(1, r.h00.MAC, r.h00.IP); err != nil {
		t.Fatalf("Monitor(1): %v", err)
	}
	if err := arm.Authorize("h10-via-spine1", r.h10.IP, 0, 1); err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	r.arm = arm
	return r
}

// stream schedules one h00→h10 packet every period across [from, to).
func (r *rig) stream(from, to, period netsim.Time) (scheduled int) {
	for at := from; at < to; at += period {
		at := at
		r.sim.At(at, func() {
			r.h00.Send(r.h00.NewPacket(r.h10.MAC, r.h10.IP, 4000, 4001, 200))
		})
		scheduled++
	}
	return scheduled
}

func (r *rig) killPrimary() { r.leaf[0].Port(0).Channel().SetUp(false) }
func (r *rig) healPrimary() { r.leaf[0].Port(0).Channel().SetUp(true) }

func (r *rig) entryAction(t *testing.T, id uint32) tcam.Action {
	t.Helper()
	e, ok := r.leaf[0].TCAM().Get(id)
	if !ok {
		t.Fatalf("entry %d vanished", id)
	}
	return e.Action
}

// Healthy fabric: heartbeats round-trip, the lag stays at steady state,
// and the reflex never fires.
func TestHeartbeatEvidenceHealthy(t *testing.T) {
	r := newRig(t, baseConfig(nil))
	r.sim.RunUntil(2 * netsim.Millisecond)
	if lag := r.arm.Lag(0); lag > 1 {
		t.Fatalf("healthy lag %d, want <= 1", lag)
	}
	if echo := r.arm.Evidence(0); echo == 0 {
		t.Fatal("no heartbeat echo landed in SRAM")
	}
	if r.arm.ProbesSent() < 30 {
		t.Fatalf("only %d probes sent in 2ms", r.arm.ProbesSent())
	}
	if r.arm.Fires() != 0 {
		t.Fatalf("reflex fired %d times on a healthy fabric", r.arm.Fires())
	}
}

// Killing the primary uplink fires the reflex: the armed entry is
// CAS-rewritten onto the backup spine, the detour is visible via
// ActiveDetours, and the stream keeps delivering.
func TestFireOnDeadEgress(t *testing.T) {
	r := newRig(t, baseConfig(obs.NewTracer(1<<14)))
	sent := r.stream(500*netsim.Microsecond, 3*netsim.Millisecond, 50*netsim.Microsecond)
	r.sim.At(netsim.Millisecond, r.killPrimary)
	r.sim.RunUntil(4 * netsim.Millisecond)

	if r.arm.Fires() != 1 {
		t.Fatalf("fires=%d, want 1", r.arm.Fires())
	}
	if !r.arm.Detoured("h10-via-spine1") {
		t.Fatal("authorization not detoured after fire")
	}
	if a := r.entryAction(t, r.primaryEntry); a.OutPort != 1 {
		t.Fatalf("entry action port %d, want backup 1", a.OutPort)
	}
	// Detection is bounded by DeadAfter heartbeats plus the probe round
	// trip (~250µs here), so only the packets inside that window die.
	lost := uint64(sent) - r.h10.Received
	if lost > 10 {
		t.Fatalf("lost %d of %d packets; reflex recovered too slowly", lost, sent)
	}
	if lost == 0 {
		t.Fatal("no packets lost: the kill never bit, so the test proves nothing")
	}

	dets := r.arm.ActiveDetours()
	if len(dets) != 1 {
		t.Fatalf("ActiveDetours: %d, want 1", len(dets))
	}
	d := dets[0]
	if d.EntryID != r.primaryEntry || d.Priority != 10 || d.PrimaryPort != 0 || d.BackupPort != 1 || d.DstIP != r.h10.IP {
		t.Fatalf("detour %+v is wrong", d)
	}
	live, _ := r.leaf[0].TCAM().Get(r.primaryEntry)
	if d.Version != live.Version {
		t.Fatalf("detour version %d, live entry %d", d.Version, live.Version)
	}
}

// After the link heals, the reflex reverts — but never before the
// flap-damping dwell has elapsed.
func TestRevertIsFlapDamped(t *testing.T) {
	r := newRig(t, baseConfig(nil))
	r.stream(500*netsim.Microsecond, 5*netsim.Millisecond, 50*netsim.Microsecond)
	r.sim.At(netsim.Millisecond, r.killPrimary)
	r.sim.At(1500*netsim.Microsecond, r.healPrimary)

	// Evidence is healthy again well before the dwell elapses, but the
	// detour must stand: dwell counts from the fire (~1.25ms).
	r.sim.RunUntil(2 * netsim.Millisecond)
	if r.arm.Fires() != 1 {
		t.Fatalf("fires=%d, want 1", r.arm.Fires())
	}
	if !r.arm.Detoured("h10-via-spine1") {
		t.Fatal("reverted before the flap-damping dwell")
	}

	r.sim.RunUntil(4 * netsim.Millisecond)
	if r.arm.Reverts() != 1 {
		t.Fatalf("reverts=%d, want 1", r.arm.Reverts())
	}
	if r.arm.Detoured("h10-via-spine1") {
		t.Fatal("still detoured after heal + dwell")
	}
	if a := r.entryAction(t, r.primaryEntry); a.OutPort != 0 {
		t.Fatalf("entry action port %d, want primary 0", a.OutPort)
	}
	// A second failure after the revert fires again: the arm re-armed.
	r.sim.At(4500*netsim.Microsecond, r.killPrimary)
	r.stream(4500*netsim.Microsecond, 6*netsim.Millisecond, 50*netsim.Microsecond)
	r.sim.RunUntil(6 * netsim.Millisecond)
	if r.arm.Fires() != 2 {
		t.Fatalf("fires=%d after second kill, want 2", r.arm.Fires())
	}
}

// A concurrent writer bumping the entry version makes the reflex lose
// its CAS and stand down — it never overwrites state it has not seen —
// until the operator re-arms it against the new version.
func TestCASRaceStandsDown(t *testing.T) {
	r := newRig(t, baseConfig(nil))
	// A controller-style write the arm has not seen: same action, new
	// version.
	if err := r.leaf[0].TCAM().Update(r.primaryEntry, tcam.Action{OutPort: 0}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	r.stream(500*netsim.Microsecond, 3*netsim.Millisecond, 50*netsim.Microsecond)
	r.sim.At(netsim.Millisecond, r.killPrimary)
	r.sim.RunUntil(2 * netsim.Millisecond)

	if r.arm.Fires() != 0 {
		t.Fatalf("fires=%d, want 0 (CAS must lose)", r.arm.Fires())
	}
	if r.arm.StaleWrites() == 0 {
		t.Fatal("no stale write recorded")
	}
	if !r.arm.Stale("h10-via-spine1") {
		t.Fatal("authorization should be stale")
	}
	if a := r.entryAction(t, r.primaryEntry); a.OutPort != 0 {
		t.Fatalf("entry action port %d changed by a stale reflex", a.OutPort)
	}

	// Re-arm against the live version: the next evidence check fires.
	r.sim.At(2*netsim.Millisecond, func() { r.arm.Rearm() })
	r.stream(2*netsim.Millisecond, 3*netsim.Millisecond, 50*netsim.Microsecond)
	r.sim.RunUntil(3 * netsim.Millisecond)
	if r.arm.Fires() != 1 {
		t.Fatalf("fires=%d after Rearm, want 1", r.arm.Fires())
	}
	if !r.arm.Detoured("h10-via-spine1") {
		t.Fatal("not detoured after Rearm + fire")
	}
}

// The per-switch budget bounds the blast radius: one detour stands at
// a time, so a second authorized prefix on the same dead egress is
// refused.
func TestBudgetBoundsBlastRadius(t *testing.T) {
	cfg := baseConfig(nil)
	cfg.Metrics = obs.NewRegistry()
	r := newRig(t, cfg)
	if err := r.arm.Authorize("h11-via-spine1", r.h11.IP, 0, 1); err != nil {
		t.Fatalf("Authorize h11: %v", err)
	}
	r.sim.At(netsim.Millisecond, r.killPrimary)
	r.sim.RunUntil(3 * netsim.Millisecond)

	if r.arm.Fires() != 1 {
		t.Fatalf("fires=%d, want exactly 1 under a budget of 1", r.arm.Fires())
	}
	row := fmt.Sprintf("switch/%d/reflex_budget_refused", r.leaf[0].ID())
	if m, ok := cfg.Metrics.Snapshot(0).Get(row); !ok || m.Value == 0 {
		t.Fatalf("no budget refusal recorded: %s = %+v (ok=%v)", row, m, ok)
	}
	detoured := 0
	for _, name := range []string{"h10-via-spine1", "h11-via-spine1"} {
		if r.arm.Detoured(name) {
			detoured++
		}
	}
	if detoured != 1 {
		t.Fatalf("%d prefixes detoured, want 1", detoured)
	}
}

// A crash-restart wipes the SRAM evidence and resets the allocator; the
// arm rebases on the new boot epoch without spurious fires, and still
// fires for real failures afterwards.
func TestRebootRebase(t *testing.T) {
	r := newRig(t, baseConfig(nil))
	r.sim.RunUntil(netsim.Millisecond)
	epochBefore := r.leaf[0].Epoch()
	r.sim.At(netsim.Millisecond, func() { r.leaf[0].Reboot(100 * netsim.Microsecond) })
	r.sim.RunUntil(3 * netsim.Millisecond)

	if r.leaf[0].Epoch() == epochBefore {
		t.Fatal("reboot did not bump the epoch")
	}
	if r.arm.Fires() != 0 {
		t.Fatalf("spurious fires across reboot: %d", r.arm.Fires())
	}
	if lag := r.arm.Lag(0); lag > 1 {
		t.Fatalf("post-reboot lag %d, want <= 1 (evidence rebased)", lag)
	}
	if echo := r.arm.Evidence(0); echo == 0 {
		t.Fatal("heartbeats did not resume after reboot")
	}

	// The rebased arm still protects: kill the primary, watch it fire.
	r.sim.At(3*netsim.Millisecond, r.killPrimary)
	r.stream(3*netsim.Millisecond, 4*netsim.Millisecond, 50*netsim.Microsecond)
	r.sim.RunUntil(4 * netsim.Millisecond)
	if r.arm.Fires() != 1 {
		t.Fatalf("fires=%d after reboot+kill, want 1", r.arm.Fires())
	}
}

// On a guarded switch, tenant TPPs address SRAM partition-relative and
// cannot reach the arm's evidence words: forged heartbeat echoes from a
// guest never land, while the operator path (which the real heartbeats
// use) does.
func TestGuardBlocksForgedEvidence(t *testing.T) {
	sim := netsim.New(1)
	edge := topo.Mbps(1000, 5*netsim.Microsecond)
	fab := topo.Mbps(1000, 10*netsim.Microsecond)
	n := topo.LeafSpine(sim, 2, 2, 1, edge, fab, topo.Uniform(asic.Config{Guard: true}), nil)
	hosts, leaves := n.LeafHosts, n.Leaves
	h00, h10 := hosts[0][0], hosts[1][0]
	route := func(sw *asic.Switch, prio int, ip uint32, port int) {
		v, m := tcam.DstIPRule(ip)
		sw.TCAM().Insert(fabric.BandBase+prio, v, m, tcam.Action{OutPort: port})
	}
	route(leaves[0], 10, h10.IP, 0)

	arm, err := reflex.Attach(sim, leaves[0], reflex.Config{})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// No Monitor: the evidence words stay untouched unless a TPP
	// writes them.  Word addresses are private, but a forger can scan:
	// use the region the arm just allocated, one heartbeat word per
	// port.
	reg, ok := leaves[0].Allocator().Lookup("reflex/evidence")
	if !ok {
		t.Fatal("evidence region not allocated")
	}
	if reg.Words != leaves[0].Ports() {
		t.Fatalf("evidence region holds %d words, want one per port (%d)", reg.Words, leaves[0].Ports())
	}
	_ = arm

	forge := func() *core.Packet {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpSTORE, A: uint16(reg.Base), B: 0},
		}, 1)
		tpp.SetWord(0, 0xDEADBEEF)
		pkt := h00.NewPacket(h10.MAC, h10.IP, 4000, 4001, 0)
		pkt.Eth.Type = core.EtherTypeTPP
		pkt.TPP = tpp
		return pkt
	}

	// Guest tenant 1, granted a partition, tries to forge the echo.
	// The NIC seals the tenant identity at the edge (guests cannot
	// claim the operator id), and the guest's SRAM addressing is
	// partition-relative — which, because one allocator carves both
	// the partition and operator task regions, can never alias the
	// evidence words: the STORE lands in the guest's own sandbox.
	if _, err := leaves[0].GrantTenant(1, guard.DefaultACL(), 8, 1, 4); err != nil {
		t.Fatalf("GrantTenant: %v", err)
	}
	h00.NIC.SetTenant(1)
	sim.At(100*netsim.Microsecond, func() { h00.Send(forge()) })
	sim.RunUntil(500 * netsim.Microsecond)
	if got := leaves[0].SRAM(mem.SRAMIndex(reg.Base)); got == 0xDEADBEEF {
		t.Fatal("guest tenant forged the heartbeat evidence")
	}
	grant, _ := leaves[0].Guard().Lookup(1)
	if got := leaves[0].SRAM(mem.SRAMIndex(grant.Partition.Base)); got != 0xDEADBEEF {
		t.Fatalf("guest store did not relocate into its sandbox: word=%08x", got)
	}

	// The operator namespace (what real heartbeats use) can write it.
	h00.NIC.SetTenant(0)
	sim.At(500*netsim.Microsecond, func() { h00.Send(forge()) })
	sim.RunUntil(netsim.Millisecond)
	if got := leaves[0].SRAM(mem.SRAMIndex(reg.Base)); got != 0xDEADBEEF {
		t.Fatalf("operator write did not land: word=%08x", got)
	}
}

// The reflex transit check adds zero allocations to the healthy packet
// hot path (tracing off), keeping the forwarding loop allocation-free.
func TestTransitZeroAlloc(t *testing.T) {
	r := newRig(t, baseConfig(nil))
	r.sim.RunUntil(netsim.Millisecond) // evidence warm, steady state
	pkt := core.NewUDPPacket(
		core.Ethernet{Dst: r.h10.MAC, Type: core.EtherTypeIPv4},
		core.IPv4{TTL: 8, Proto: core.ProtoUDP, Dst: r.h10.IP},
		core.UDP{SrcPort: 4000, DstPort: 4001},
	)
	if n := testing.AllocsPerRun(1000, func() {
		if out := r.arm.Transit(pkt, 0); out != 0 {
			t.Fatalf("healthy transit rerouted to %d", out)
		}
	}); n != 0 {
		t.Fatalf("Transit allocates %.1f times per packet on the healthy path", n)
	}
}
