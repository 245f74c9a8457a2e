package asic_test

import (
	"fmt"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/verify"
)

// A switch in paranoid mode statically verifies every arriving TPP and
// strips the ones that would fault, while still executing and
// forwarding well-formed programs.
func TestParanoidModeStripsFaultingTPP(t *testing.T) {
	sim := netsim.New(1)
	reg := obs.NewRegistry()
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 7, Ports: 4, Verify: &verify.Config{}, Metrics: reg})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	var sawTPP, sawPlain int
	h2.HandleDefault(func(p *core.Packet) {
		if p.TPP != nil {
			sawTPP++
		} else {
			sawPlain++
		}
	})

	send := func(tpp *core.TPP) {
		h1.Send(&core.Packet{
			Eth:     core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
			TPP:     tpp,
			IP:      &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h1.IP, Dst: h2.IP},
			UDP:     &core.UDP{SrcPort: 1, DstPort: 9},
			Payload: []byte("data"),
		})
		sim.RunUntil(sim.Now() + 20*netsim.Millisecond)
	}

	// A PUSH from an unmapped address would fault the TCPU; paranoid
	// mode strips it, and the encapsulated payload still flows.
	send(core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + 200)},
	}, 2))
	if sawTPP != 0 || sawPlain != 1 {
		t.Fatalf("faulting TPP: sawTPP=%d sawPlain=%d", sawTPP, sawPlain)
	}
	if sw.TPPsExecuted() != 0 {
		t.Fatal("rejected TPP still executed")
	}
	if v := counterRow(t, reg, "switch/7/tpps_rejected"); v != 1 {
		t.Fatalf("tpps_rejected metric = %d", v)
	}

	// A verifiable program passes through untouched and executes.
	send(queueProbe(2))
	if sawTPP != 1 {
		t.Fatalf("verified TPP did not forward: sawTPP=%d", sawTPP)
	}
	if sw.TPPsExecuted() != 1 {
		t.Fatalf("TPPsExecuted = %d", sw.TPPsExecuted())
	}
	if v := counterRow(t, reg, "switch/7/tpps_rejected"); v != 1 {
		t.Fatalf("tpps_rejected moved to %d on a good program", v)
	}
}

// Paranoid-mode verification resolves its limits from the switch
// config: a program longer than the device's instruction limit is
// rejected even though the verifier config left MaxInstructions zero.
func TestParanoidModeUsesDeviceLimits(t *testing.T) {
	sim := netsim.New(1)
	reg := obs.NewRegistry()
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, Verify: &verify.Config{}, Metrics: reg})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(time1ms())

	ins := make([]core.Instruction, 6) // over the default 5-ins limit
	for i := range ins {
		ins[i] = core.Instruction{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)}
	}
	h1.Send(&core.Packet{
		Eth: core.Ethernet{Dst: h2.MAC, Src: h1.MAC, Type: core.EtherTypeTPP},
		TPP: core.NewTPP(core.AddrStack, ins, 8),
		IP:  &core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h1.IP, Dst: h2.IP},
		UDP: &core.UDP{SrcPort: 1, DstPort: 9},
	})
	sim.RunUntil(20 * netsim.Millisecond)

	if v := counterRow(t, reg, fmt.Sprintf("switch/%d/tpps_rejected", sw.ID())); v != 1 {
		t.Fatalf("tpps_rejected = %d", v)
	}
	if sw.TPPsExecuted() != 0 {
		t.Fatal("over-length TPP executed")
	}
}
