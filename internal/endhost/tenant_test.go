package endhost

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// The NIC is the guard's trusted edge: Send must stamp its configured
// tenant id on every outgoing TPP, overwriting whatever the guest
// wrote — a guest cannot claim another tenant's identity, least of all
// the operator's.
func TestNICSealsTenant(t *testing.T) {
	sim := netsim.New(1)
	a, b := pair(sim, 8_000_000)
	a.NIC.SetTenant(4)
	if a.NIC.tenant != 4 {
		t.Fatalf("sealed tenant = %d", a.NIC.tenant)
	}

	forged := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, 2)
	forged.Tenant = 0 // the guest claims to be the operator
	pkt := &core.Packet{
		Eth: core.Ethernet{Dst: b.MAC, Src: a.MAC, Type: core.EtherTypeTPP},
		TPP: forged,
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: a.IP, Dst: b.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	}
	if !a.Send(pkt) {
		t.Fatal("send failed")
	}
	if forged.Tenant != 4 {
		t.Fatalf("sealed tenant = %d, want 4", forged.Tenant)
	}

	// Non-TPP packets are untouched and an unconfigured NIC stamps the
	// operator id.
	if !b.Send(b.NewPacket(a.MAC, a.IP, 1, 2, 100)) {
		t.Fatal("plain send failed")
	}
	echo := core.NewTPP(core.AddrStack, nil, 1)
	echo.Tenant = 200
	if !b.Send(&core.Packet{
		Eth: core.Ethernet{Dst: a.MAC, Src: b.MAC, Type: core.EtherTypeTPP},
		TPP: echo,
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: b.IP, Dst: a.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	}) {
		t.Fatal("send failed")
	}
	if echo.Tenant != 0 {
		t.Fatalf("unconfigured NIC sealed tenant %d, want operator", echo.Tenant)
	}
	sim.Run()
}
