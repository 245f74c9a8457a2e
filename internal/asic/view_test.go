package asic_test

import (
	"errors"
	"testing"

	"repro/internal/asic"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
	"repro/internal/topo"
)

type condStorer interface {
	CondStore(mem.Addr, uint32, uint32) (uint32, error)
}

func TestAbsoluteWindowScratchStores(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)

	view := sw.ViewForTesting(nil, 0)
	// Store through the absolute window to port 1's scratch while the
	// packet context is port 0.
	abs := mem.PortAbs(1, mem.PortScratchBase+2)
	if err := view.Store(abs, 555); err != nil {
		t.Fatal(err)
	}
	if got := sw.Port(1).Scratch(2); got != 555 {
		t.Fatalf("port 1 scratch = %d", got)
	}
	if sw.Port(0).Scratch(2) != 0 {
		t.Fatal("context port written instead of absolute target")
	}
	// Read it back both ways.
	v1, _ := view.Load(abs)
	v2, _ := sw.ViewForTesting(nil, 1).Load(mem.PortBase + mem.PortScratchBase + 2)
	if v1 != 555 || v2 != 555 {
		t.Fatalf("reads: abs=%d rel=%d", v1, v2)
	}
	// A store to an absolute port beyond the port count faults.
	if err := view.Store(mem.PortAbs(9, mem.PortScratchBase), 1); err == nil {
		t.Fatal("store beyond port count accepted")
	}
}

func TestCondStoreErrorPaths(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h := n.AddHost()
	n.LinkHost(h, sw, edge)
	cs := sw.ViewForTesting(nil, 0).(condStorer)

	if _, err := cs.CondStore(mem.QueueBase, 0, 1); err == nil {
		t.Fatal("CondStore to read-only statistic accepted")
	}
	if _, err := cs.CondStore(mem.SwitchBase+0xF0, 0, 1); err == nil {
		t.Fatal("CondStore to unmapped word accepted")
	}
	// A writable but unmapped word (port 9's scratch on a 4-port switch)
	// faults as the store it is, like STORE and POP to the same word.
	var ae *mem.AccessError
	if _, err := cs.CondStore(mem.PortAbs(9, mem.PortScratchBase), 0, 1); !errors.As(err, &ae) || !ae.Write {
		t.Fatalf("CondStore beyond the port count: err = %v, want a store fault", err)
	}
	// Mismatch leaves the word untouched but reports the old value.
	a := mem.SRAMBase + 7
	sw.SetSRAM(7, 42)
	old, err := cs.CondStore(a, 1, 99)
	if err != nil || old != 42 || sw.SRAM(7) != 42 {
		t.Fatalf("mismatched CondStore: old=%d sram=%d err=%v", old, sw.SRAM(7), err)
	}
}

func TestPortAccessors(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, QueueCapBytes: 7_000})
	h := n.AddHost()
	p := n.LinkHost(h, sw, edge)

	port := sw.Port(p)
	if port.ID() != p || !port.Wired() {
		t.Fatal("port accessors wrong")
	}
	if q := port.Queue(); q == nil || q != port.Queue() || q.CapBytes() != 7_000 || port.QueueBytes() != 0 {
		t.Fatal("queue accessors wrong")
	}
	if port.Channel().RateBytes() != uint32(edge.RateBps/8) {
		t.Fatal("channel accessor wrong")
	}
	view := sw.ViewForTesting(nil, p)
	port.SetSNR(2500)
	if snr, err := view.Load(mem.PortBase + mem.PortSNR); err != nil || snr != 2500 {
		t.Fatalf("[Link:SNR] = %d, %v; want 2500", snr, err)
	}
	port.SetScratch(3, 9)
	if port.Scratch(3) != 9 {
		t.Fatal("scratch accessor wrong")
	}
	rx, _ := view.Load(mem.PortBase + mem.PortRXUtil)
	tx, _ := view.Load(mem.PortBase + mem.PortTXUtil)
	if rx != 0 || tx != 0 {
		t.Fatalf("fresh meters read rx %d tx %d, want 0", rx, tx)
	}
	if sw.Allocator() == nil {
		t.Fatal("allocator accessor wrong")
	}
}

func TestWirePanicsOnBadPort(t *testing.T) {
	sim := netsim.New(1)
	sw := asic.New(sim, asic.Config{Ports: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sw.Wire(5, netsim.NewChannel(sim, 1000, 0, sw, 0))
}

func TestUnwiredEgressIsBlackhole(t *testing.T) {
	// A TCAM rule pointing at a port with no channel — unwired, past the
	// last port, or negative — blackholes the packet, and the switch
	// counts it and says so in a span, instead of crashing or passing it
	// off as a rule's deliberate drop.
	for _, tc := range []struct {
		name       string
		action     tcam.Action
		blackholes uint64
	}{
		{"unwired port", actionOut(3), 1},
		{"port past the last", actionOut(4), 1},
		{"negative port", actionOut(-3), 1},
		{"drop rule", tcam.Action{Drop: true, OutPort: -3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New(1)
			reg, tr := obs.NewRegistry(), obs.NewTracer(1<<10)
			n := topo.NewNetwork(sim)
			sw := n.AddSwitch(asic.Config{Ports: 4, Metrics: reg, Trace: tr})
			h1, h2 := n.AddHost(), n.AddHost()
			n.LinkHost(h1, sw, edge)
			n.LinkHost(h2, sw, edge)
			n.PrimeL2(time1ms())

			v, m := dstRule(h2.IP)
			sw.TCAM().Insert(10, v, m, tc.action)
			before := h2.Received
			h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1, 2, 10))
			sim.RunUntil(sim.Now() + 20*netsim.Millisecond)
			if h2.Received != before {
				t.Fatal("packet escaped the blackhole")
			}
			var spans uint64
			tr.Each(func(ev *obs.SpanEvent) {
				if ev.Stage == obs.StageBlackhole {
					spans++
				}
			})
			if got := counterRow(t, reg, "switch/1/blackholes"); got != tc.blackholes || spans != tc.blackholes {
				t.Fatalf("blackholes counted %d, spans %d, want %d", got, spans, tc.blackholes)
			}
		})
	}
}

// helpers shared with the TCAM tests in this package.
func dstRule(ip uint32) (tcam.Key, tcam.Key) { return tcam.DstIPRule(ip) }
func actionOut(p int) tcam.Action            { return tcam.Action{OutPort: p} }
