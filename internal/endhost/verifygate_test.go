package endhost

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/verify"
)

// The NIC's injection-time verifier (§3.5 end-host sanity check) must
// refuse TPPs that carry error diagnostics, count the rejection, and
// leave well-formed programs alone.
func TestNICVerifierGate(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	a.NIC.SetVerifier(&verify.Config{})

	tppPacket := func(tpp *core.TPP) *core.Packet {
		return &core.Packet{
			Eth: core.Ethernet{Dst: b.MAC, Src: a.MAC, Type: core.EtherTypeTPP},
			TPP: tpp,
			IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: a.IP, Dst: b.IP},
			UDP: &core.UDP{SrcPort: 1, DstPort: 9},
		}
	}

	// A STORE into the read-only statistics range must be rejected at
	// injection: Send returns false and nothing reaches the wire.
	bad := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpPOP, A: uint16(mem.SwitchBase)},
	}, 2)
	if a.Send(tppPacket(bad)) {
		t.Fatal("NIC accepted a TPP that writes switch statistics")
	}
	if a.NIC.Rejected != 1 {
		t.Fatalf("Rejected = %d", a.NIC.Rejected)
	}
	if verify.Verify(bad, verify.Config{}).OK() {
		t.Fatal("the verifier reports OK for a rejected program")
	}
	sim.Run()
	if b.Received != 0 {
		t.Fatal("rejected TPP reached the peer")
	}

	// A clean probe sails through.
	good := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, 2)
	if !a.Send(tppPacket(good)) {
		t.Fatal("NIC rejected a verifiable TPP")
	}
	if a.NIC.Rejected != 1 {
		t.Fatalf("Rejected = %d after a verifiable TPP", a.NIC.Rejected)
	}
	if res := verify.Verify(good, verify.Config{}); !res.OK() {
		t.Fatalf("the verifier rejects the probe: %v", res)
	}
	sim.Run()
	if b.Received != 1 {
		t.Fatalf("peer received %d packets", b.Received)
	}

	// Non-TPP traffic and a disabled verifier are unaffected.
	if !a.Send(a.NewPacket(b.MAC, b.IP, 1, 2, 100)) {
		t.Fatal("plain packet rejected")
	}
	a.NIC.SetVerifier(nil)
	if !a.Send(tppPacket(bad)) {
		t.Fatal("disabled verifier still rejects")
	}
	if a.NIC.Rejected != 1 {
		t.Fatalf("Rejected moved to %d with verifier off", a.NIC.Rejected)
	}

	// A verdict depends on packet memory as well as instructions: a
	// CEXEC whose guard words can never pass (value bits outside the
	// mask) leaves the STORE after it unreachable, while the same
	// instructions behind a passable guard store into read-only
	// switch statistics and must be refused.
	a.NIC.SetVerifier(&verify.Config{})
	guarded := func(mask uint32) *core.TPP {
		tpp := core.NewTPP(core.AddrHop, []core.Instruction{
			{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
			{Op: core.OpSTORE, A: uint16(mem.SwitchBase + mem.SwitchID), B: 2},
		}, 3)
		tpp.HopLen = 12
		tpp.SetWord(0, mask)
		tpp.SetWord(1, 1)
		return tpp
	}
	if !a.Send(tppPacket(guarded(0))) {
		t.Fatalf("NIC rejected a STORE behind a guard that never passes: %v",
			verify.Verify(guarded(0), verify.Config{}))
	}
	if a.Send(tppPacket(guarded(0xffffffff))) {
		t.Fatal("NIC accepted a STORE to switch statistics behind a passable guard")
	}
	if a.NIC.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", a.NIC.Rejected)
	}
}
