package rcp

import (
	"reflect"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func TestSingleFlowFindsCapacity(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, QueueCapBytes: 30_000})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, netsim.Millisecond))
	n.LinkHost(h2, sw, topo.Mbps(10, netsim.Millisecond))
	n.PrimeL2(10 * netsim.Millisecond)

	rcv := newAIMDReceiver(sim, h2)
	var rcvd uint64
	h2.Handle(aimdDataPort, func(p *core.Packet) {
		rcvd += uint64(p.PayloadLen())
		rcv.onData(p)
	})
	snd := newAIMDSender(sim, h1, h2.MAC, h2.IP, 20_000)
	snd.Start()
	sim.RunUntil(sim.Now() + 30*netsim.Second)

	// Goodput must approach the 10 Mb/s (1.25 MB/s) bottleneck; AIMD
	// sawtooths, so accept 60-100%.
	goodput := float64(rcvd) / 30
	if goodput < 750_000 || goodput > 1_300_000 {
		t.Fatalf("goodput = %.0f B/s, want near 1.25e6", goodput)
	}
	if snd.backoffs == 0 {
		t.Fatal("AIMD never backed off: no loss induced")
	}
	if snd.increments == 0 {
		t.Fatal("AIMD never increased")
	}
}

func TestLossDetectionTriggersDecrease(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, QueueCapBytes: 5_000})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(1, 0)) // tiny queue, slow drain: drops
	n.PrimeL2(10 * netsim.Millisecond)

	h2.Handle(aimdDataPort, newAIMDReceiver(sim, h2).onData)
	snd := newAIMDSender(sim, h1, h2.MAC, h2.IP, 1_000_000) // way over capacity
	before := snd.Rate()
	snd.Start()
	sim.RunUntil(sim.Now() + 2*netsim.Second)
	if snd.backoffs == 0 {
		t.Fatal("no backoff despite heavy loss")
	}
	if snd.Rate() >= before {
		t.Fatalf("rate did not decrease: %.0f -> %.0f", before, snd.Rate())
	}
}

func TestStopHaltsSender(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(100, 0))
	n.LinkHost(h2, sw, topo.Mbps(100, 0))
	n.PrimeL2(10 * netsim.Millisecond)

	snd := newAIMDSender(sim, h1, h2.MAC, h2.IP, 100_000)
	snd.Start()
	sim.RunUntil(sim.Now() + netsim.Second)
	snd.Stop()
	sent := snd.Sent
	sim.RunUntil(sim.Now() + netsim.Second)
	if snd.Sent != sent {
		t.Fatal("sender kept transmitting after Stop")
	}
}

func TestComparisonAIMDvsRCPStar(t *testing.T) {
	cfg := DefaultCompareConfig()
	aimdRes := RunComparison(VariantAIMD, cfg)
	rcpRes := RunComparison(VariantStar, cfg)

	// Both schemes must use the link reasonably in steady state.
	if aimdRes.Utilization < 0.5 {
		t.Fatalf("AIMD utilization = %.2f", aimdRes.Utilization)
	}
	if rcpRes.Utilization < 0.7 {
		t.Fatalf("RCP* utilization = %.2f", rcpRes.Utilization)
	}
	// The paper's claim, quantified: RCP* keeps queues far smaller
	// than loss-driven AIMD...
	if rcpRes.MeanQueueBytes >= aimdRes.MeanQueueBytes {
		t.Fatalf("queues: RCP* %.0f >= AIMD %.0f",
			rcpRes.MeanQueueBytes, aimdRes.MeanQueueBytes)
	}
	// ...without inducing loss to find the rate.
	if rcpRes.DropPkts > aimdRes.DropPkts {
		t.Fatalf("drops: RCP* %d > AIMD %d", rcpRes.DropPkts, aimdRes.DropPkts)
	}
	// And is at least as fair across the three flows.
	if rcpRes.JainIndex < 0.9 {
		t.Fatalf("RCP* Jain index = %.3f", rcpRes.JainIndex)
	}
	if rcpRes.JainIndex+0.05 < aimdRes.JainIndex {
		t.Fatalf("fairness: RCP* %.3f much worse than AIMD %.3f",
			rcpRes.JainIndex, aimdRes.JainIndex)
	}
}

func TestComparisonDeterminism(t *testing.T) {
	cfg := DefaultCompareConfig()
	cfg.Duration = 8 * netsim.Second
	cfg.FlowStarts = []netsim.Time{0, netsim.Second}
	for _, v := range []Variant{VariantStar, VariantBaseline, VariantAIMD} {
		a := RunComparison(v, cfg)
		b := RunComparison(v, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different results:\n%+v\n%+v", v, a, b)
		}
		if a.Utilization < 0.3 {
			t.Errorf("%s: utilization %.2f: the scheme barely ran", v, a.Utilization)
		}
	}
}
