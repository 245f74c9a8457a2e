package rcp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

// TestPacedFlowRestart pins Stop/Start on every scheme's sender: a
// restart inside one pacing gap must not leave the old send chain alive
// beside the new one (AIMD's private pacer used to: 100 packets in the
// first second, 201 in the second), a stopped sender stays silent, and
// a later Start resumes at the same rate.
func TestPacedFlowRestart(t *testing.T) {
	const rate = 100_000 // bytes/sec: one 1000-byte frame every 10 ms
	for _, tc := range []struct {
		scheme Variant
		build  func(sim *netsim.Sim, a, b *endhost.Host) *PacedFlow
	}{
		{VariantStar, func(sim *netsim.Sim, a, b *endhost.Host) *PacedFlow {
			f := newPacedFlow(sim, a, b.MAC, b.IP, StarDataPort, nil)
			f.SetRate(rate)
			return f
		}},
		{VariantBaseline, func(sim *netsim.Sim, a, b *endhost.Host) *PacedFlow {
			return newBaselineSender(sim, a, b.MAC, b.IP, rate)
		}},
		{VariantAIMD, func(sim *netsim.Sim, a, b *endhost.Host) *PacedFlow {
			return newAIMDSender(sim, a, b.MAC, b.IP, rate).PacedFlow
		}},
	} {
		t.Run(string(tc.scheme), func(t *testing.T) {
			sim := netsim.New(1)
			a := endhost.NewHost(sim, core.MACFromUint64(1), core.IPv4Addr(10, 0, 0, 1))
			b := endhost.NewHost(sim, core.MACFromUint64(2), core.IPv4Addr(10, 0, 0, 2))
			a.NIC.Attach(netsim.NewChannel(sim, 100_000_000, 0, b, 0))
			b.NIC.Attach(netsim.NewChannel(sim, 100_000_000, 0, a, 0))
			f := tc.build(sim, a, b)

			// sentIn runs the simulation for one more second and
			// returns the packets sent in it.
			sentIn := func() uint64 {
				before := f.Sent
				sim.RunUntil(sim.Now() + netsim.Second)
				return f.Sent - before
			}
			f.Start()
			if n := sentIn(); n < 95 || n > 105 {
				t.Fatalf("first second: sent %d packets, want ~100", n)
			}
			f.Stop()
			f.Start() // inside the gap the pending send was scheduled across
			if n := sentIn(); n < 95 || n > 105 {
				t.Fatalf("second after Stop+Start: sent %d packets, want ~100", n)
			}
			f.Stop()
			if n := sentIn(); n != 0 {
				t.Fatalf("sent %d packets while stopped", n)
			}
			f.Start()
			if n := sentIn(); n < 95 || n > 105 {
				t.Fatalf("second after restart: sent %d packets, want ~100", n)
			}
		})
	}
}

// TestPacedFlowStartedAtRateZeroSendsAfterSetRate: a flow started before
// it has a rate sends nothing, and its first rate starts it — it used
// to stay wedged ("already running", nothing scheduled) until a
// Stop+Start.
func TestPacedFlowStartedAtRateZeroSendsAfterSetRate(t *testing.T) {
	sim := netsim.New(1)
	a := endhost.NewHost(sim, core.MACFromUint64(1), core.IPv4Addr(10, 0, 0, 1))
	b := endhost.NewHost(sim, core.MACFromUint64(2), core.IPv4Addr(10, 0, 0, 2))
	a.NIC.Attach(netsim.NewChannel(sim, 100_000_000, 0, b, 0))
	b.NIC.Attach(netsim.NewChannel(sim, 100_000_000, 0, a, 0))

	f := newPacedFlow(sim, a, b.MAC, b.IP, StarDataPort, nil)
	f.Start()
	sim.RunUntil(netsim.Second)
	if f.Sent != 0 || !f.Running() {
		t.Fatalf("at rate 0: sent %d packets, running %v; want none, running", f.Sent, f.Running())
	}
	f.SetRate(100_000) // one 1000-byte frame every 10 ms
	sim.RunUntil(2 * netsim.Second)
	if f.Sent < 95 || f.Sent > 105 {
		t.Fatalf("second after SetRate: sent %d packets, want ~100", f.Sent)
	}
	// A later SetRate re-paces the one send chain; it does not add one.
	before := f.Sent
	f.SetRate(200_000)
	sim.RunUntil(3 * netsim.Second)
	if n := f.Sent - before; n < 190 || n > 210 {
		t.Fatalf("second at the doubled rate: sent %d packets, want ~200", n)
	}
}
