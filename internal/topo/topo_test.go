package topo

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/netsim"
	"repro/internal/obs"
)

func TestMbps(t *testing.T) {
	spec := Mbps(10, 5*netsim.Millisecond)
	if spec.RateBps != 10_000_000 || spec.Delay != 5*netsim.Millisecond {
		t.Fatalf("Mbps = %+v", spec)
	}
}

func TestAutoIDsAndAddressing(t *testing.T) {
	sim := netsim.New(1)
	n := NewNetwork(sim)
	s1 := n.AddSwitch(asic.Config{})
	s2 := n.AddSwitch(asic.Config{})
	if s1.ID() != 1 || s2.ID() != 2 {
		t.Fatalf("switch ids: %d, %d", s1.ID(), s2.ID())
	}
	h1 := n.AddHost()
	h2 := n.AddHost()
	if h1.MAC == h2.MAC || h1.IP == h2.IP {
		t.Fatal("hosts share addresses")
	}

	// Auto-numbering skips an id a switch already holds; an explicit
	// duplicate is a construction bug.
	n.AddSwitch(asic.Config{ID: 4})
	if s4 := n.AddSwitch(asic.Config{}); s4.ID() != 5 {
		t.Fatalf("auto id after explicit 4 = %d, want 5", s4.ID())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate switch id did not panic")
		}
	}()
	n.AddSwitch(asic.Config{ID: 2})
}

func TestPortAllocation(t *testing.T) {
	sim := netsim.New(1)
	n := NewNetwork(sim)
	a := n.AddSwitch(asic.Config{Ports: 3})
	b := n.AddSwitch(asic.Config{Ports: 3})
	ap, bp := n.LinkSwitches(a, b, Mbps(10, 0))
	if ap != 0 || bp != 0 {
		t.Fatalf("first link ports: %d, %d", ap, bp)
	}
	h := n.AddHost()
	hp := n.LinkHost(h, a, Mbps(10, 0))
	if hp != 1 {
		t.Fatalf("host port = %d", hp)
	}
	att := n.AttachmentOf(h)
	if att.Switch != a || att.Port != 1 {
		t.Fatalf("attachment = %+v", att)
	}
	// Exhaust a's ports: one more link fits, the next panics.
	n.LinkHost(n.AddHost(), a, Mbps(10, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("port exhaustion did not panic")
		}
	}()
	n.LinkHost(n.AddHost(), a, Mbps(10, 0))
}

func TestLineConnectivity(t *testing.T) {
	sim := netsim.New(1)
	n, src, dst, sws := Line(sim, 4, Mbps(100, 0), Mbps(100, 0), nil, nil)
	if len(sws) != 4 || len(n.Hosts) != 2 {
		t.Fatalf("line shape: %d switches, %d hosts", len(sws), len(n.Hosts))
	}
	// Unset Ports are sized to exactly what the shape wires.
	if p := sws[0].Ports(); p != 2 {
		t.Fatalf("line switch has %d ports, want 2", p)
	}
	n.PrimeL2(netsim.Millisecond)
	src.Send(src.NewPacket(dst.MAC, dst.IP, 1, 2, 10))
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)
	if dst.Received < 2 { // broadcast + data
		t.Fatalf("dst received %d", dst.Received)
	}
}

// TestLinkTracingIsExplicit: tracing a switch's pipeline does not trace
// its wires; only the builder's links argument (SetTrace) does.
func TestLinkTracingIsExplicit(t *testing.T) {
	for _, traced := range []bool{false, true} {
		sim := netsim.New(1)
		tr := obs.NewTracer(1 << 10)
		var links *obs.Tracer
		if traced {
			links = tr
		}
		_, src, dst, _ := Line(sim, 2, Mbps(100, 0), Mbps(100, 0), Uniform(asic.Config{Trace: tr}), links)
		src.Send(src.NewPacket(dst.MAC, dst.IP, 1, 2, 10))
		sim.RunUntil(netsim.Millisecond)
		var pipeline, wire int
		tr.Each(func(ev *obs.SpanEvent) {
			switch ev.Stage {
			case obs.StageParser:
				pipeline++
			case obs.StageLinkTx:
				wire++
			}
		})
		if pipeline != 2 || (wire > 0) != traced {
			t.Fatalf("links traced=%v: %d parser spans, %d link-tx spans", traced, pipeline, wire)
		}
	}
}

func TestStarConnectivity(t *testing.T) {
	sim := netsim.New(1)
	n, hosts, sw := Star(sim, 5, Mbps(100, 0), Uniform(asic.Config{Ports: 8}), nil)
	if len(hosts) != 5 || sw == nil {
		t.Fatal("star shape wrong")
	}
	n.PrimeL2(netsim.Millisecond)
	hosts[0].Send(hosts[0].NewPacket(hosts[4].MAC, hosts[4].IP, 1, 2, 10))
	sim.RunUntil(sim.Now() + 50*netsim.Millisecond)
	if hosts[4].Received < 5 { // 4 broadcasts + data
		t.Fatalf("received %d", hosts[4].Received)
	}
}

func TestDumbbellShape(t *testing.T) {
	sim := netsim.New(1)
	n := Dumbbell(sim, 3, Mbps(100, 0), Mbps(10, 0), nil, nil)
	senders, receivers, a, b := n.Senders, n.Receivers, n.A, n.B
	if len(senders) != 3 || len(receivers) != 3 {
		t.Fatal("dumbbell hosts wrong")
	}
	if a.Ports() != 4 || b.Ports() != 4 {
		t.Fatalf("dumbbell switches have %d and %d ports, want flows+1", a.Ports(), b.Ports())
	}
	for _, s := range senders {
		if n.AttachmentOf(s).Switch != a {
			t.Fatal("sender on wrong side")
		}
	}
	for _, r := range receivers {
		if n.AttachmentOf(r).Switch != b {
			t.Fatal("receiver on wrong side")
		}
	}
	n.PrimeL2(netsim.Millisecond)
	senders[0].Send(senders[0].NewPacket(receivers[0].MAC, receivers[0].IP, 1, 2, 10))
	sim.RunUntil(sim.Now() + 100*netsim.Millisecond)
	if receivers[0].Received == 0 {
		t.Fatal("no cross-bottleneck delivery")
	}
}

func TestLeafSpineShape(t *testing.T) {
	sim := netsim.New(1)
	n := LeafSpine(sim, 2, 2, 2, Mbps(100, 0), Mbps(100, 0), nil, nil)
	hosts, leaves, spines := n.LeafHosts, n.Leaves, n.Spines
	if len(leaves) != 2 || len(spines) != 2 {
		t.Fatal("fabric shape wrong")
	}
	if leaves[0].Ports() != 4 || spines[0].Ports() != 2 {
		t.Fatalf("leaf has %d ports, spine %d; want spines+hosts and leaves", leaves[0].Ports(), spines[0].Ports())
	}
	if len(hosts) != 2 || len(hosts[0]) != 2 {
		t.Fatal("host grid wrong")
	}
	// Hosts hang off leaves; leaf ports 0..spines-1 go to spines.
	if n.AttachmentOf(hosts[0][0]).Switch != leaves[0] {
		t.Fatal("host not on its leaf")
	}
	if n.AttachmentOf(hosts[0][0]).Port < 2 {
		t.Fatal("host port overlaps spine uplinks")
	}
}
