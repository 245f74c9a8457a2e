package rcp

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// meanGoodput averages flow 0's goodput (bytes/sec) over samples with
// from <= t < to.
func meanGoodput(res Fig2Result, from, to float64) float64 {
	sum, n := 0.0, 0
	for _, s := range res.Samples {
		if s.T >= from && s.T < to {
			sum += s.Flows[0]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestFigure2StarRecoversFromLinkFlap is the recovery acceptance test:
// a single RCP* flow converges, the bottleneck link goes down for 4s
// (dropping data, probes and updates alike), and after the link comes
// back the controller re-converges to the fair share without outside
// help — probes time out and are reaped during the outage, the flow
// holds its last rate, and the next successful collect resumes the
// loop.
func TestFigure2StarRecoversFromLinkFlap(t *testing.T) {
	cfg := DefaultFig2Config(VariantStar)
	cfg.Duration = 24 * netsim.Second
	cfg.FlowStarts = []netsim.Time{0}
	h := NewHarness(len(cfg.FlowStarts), cfg.Seed, cfg.Metrics)
	inj := faults.NewInjector(h.Sim, nil)
	inj.RegisterLink("bottleneck", h.A.Port(h.APort).Channel(), h.B.Port(h.BPort).Channel())
	if err := inj.Schedule(faults.Plan{Seed: cfg.Seed, Events: faults.Flap(
		"bottleneck", 8*netsim.Second, 4*netsim.Second)}); err != nil {
		t.Fatal(err)
	}
	res := runFigure2(h, cfg)

	capacity := bottleneckMbps * 1e6 / 8

	// Converged before the fault: one flow owns the whole link.
	if rc := res.MeanROverC(4, 8); rc < 0.65 || rc > 1.01 {
		t.Errorf("pre-fault mean R/C = %.3f, want ~1", rc)
	}
	pre := meanGoodput(res, 4, 8)
	if pre < 0.5*capacity {
		t.Fatalf("pre-fault goodput %.0f B/s, want > half of %.0f", pre, capacity)
	}

	// The outage bites: goodput collapses while the link is down.  (The
	// first half second drains in-flight queues, so measure after it.)
	if during := meanGoodput(res, 8.5, 12); during > 0.02*capacity {
		t.Errorf("goodput during outage = %.0f B/s, want ~0", during)
	}

	// And heals: after recovery the loop re-converges on its own.
	if rc := res.MeanROverC(18, 24); rc < 0.65 || rc > 1.01 {
		t.Errorf("post-recovery mean R/C = %.3f, want ~1", rc)
	}
	post := meanGoodput(res, 18, 24)
	if post < 0.5*capacity {
		t.Errorf("post-recovery goodput %.0f B/s, want > half of %.0f", post, capacity)
	}
	if post < 0.8*pre {
		t.Errorf("recovery incomplete: goodput %.0f B/s vs %.0f before the fault", post, pre)
	}
}

// TestStarControllerDegradesAndRecovers drives one controller directly
// through a long outage and checks the degradation contract: probe
// deadlines reap the pending set (bounded, no leak), consecutive
// misses push the controller back into capacity discovery, and after
// the link returns the loop finds the fair share again.
func TestStarControllerDegradesAndRecovers(t *testing.T) {
	sim := netsim.New(1)
	n := topo.Dumbbell(sim, 1,
		topo.Mbps(100, netsim.Millisecond), topo.Mbps(10, 10*netsim.Millisecond),
		topo.Uniform(asic.Config{Ports: 8, QueueCapBytes: 125_000}), nil)
	senders, receivers, a, b := n.Senders, n.Receivers, n.A, n.B
	n.PrimeL2(50 * netsim.Millisecond)
	InitRateRegisters(a, b)

	inj := faults.NewInjector(sim, nil)
	inj.RegisterLink("bn", a.Port(n.APort).Channel(), b.Port(n.BPort).Channel())
	if err := inj.Schedule(faults.Plan{Seed: 1, Events: faults.Flap(
		"bn", 3*netsim.Second, 5*netsim.Second)}); err != nil {
		t.Fatal(err)
	}

	prober := endhost.NewProber(senders[0])
	ctl := NewStarController(sim, senders[0], prober,
		receivers[0].MAC, receivers[0].IP)
	ctl.Start()
	defer ctl.Stop()

	// Mid-outage: every probe since t=3s has been eaten.
	sim.RunUntil(7 * netsim.Second)
	if ctl.Timeouts == 0 {
		t.Fatal("no probe deadlines fired during a 4s outage")
	}
	if ctl.haveCaps {
		t.Fatal("controller still trusts pre-outage capacities after sustained misses")
	}
	// Pending is bounded by the probes still inside their deadline
	// window (timeout / T of them), not by every probe ever sent.
	if max := int(probeTimeout/ControlPeriod) + 2; prober.Outstanding() > max {
		t.Fatalf("pending grew to %d (> %d): probes leak during outage", prober.Outstanding(), max)
	}

	// After recovery: discovery reruns and the rate converges to the
	// full 10 Mb/s fair share again.
	sim.RunUntil(15 * netsim.Second)
	if !ctl.haveCaps {
		t.Fatal("controller never rediscovered capacities after recovery")
	}
	if ctl.LastRate < 0.65*1.25e6 {
		t.Fatalf("post-recovery rate %.0f B/s, want near capacity (1.25e6)", ctl.LastRate)
	}
	if prober.Outstanding() > 2 {
		t.Fatalf("steady state left %d probes pending", prober.Outstanding())
	}
}
