package rcp

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestStarControllerSurvivesSwitchReboot crash-restarts the bottleneck
// switch under a converged RCP* flow: the reboot wipes the rate
// register the controller seeded, the next collect probe's epoch word
// reveals the crash, and the controller re-seeds and re-converges to
// the fair share within a bounded number of control intervals — all
// without any out-of-band signal.
func TestStarControllerSurvivesSwitchReboot(t *testing.T) {
	sim := netsim.New(1)
	n := topo.Dumbbell(sim, 1,
		topo.Mbps(100, netsim.Millisecond), topo.Mbps(10, 10*netsim.Millisecond),
		topo.Uniform(asic.Config{Ports: 8, QueueCapBytes: 125_000}), nil)
	senders, receivers, a, b := n.Senders, n.Receivers, n.A, n.B
	n.PrimeL2(50 * netsim.Millisecond)
	InitRateRegisters(a, b)

	const rebootAt = 3 * netsim.Second
	inj := faults.NewInjector(sim, nil)
	inj.RegisterSwitch("a", a)
	if err := inj.Schedule(faults.Plan{Seed: 1, Events: []faults.Event{
		{At: rebootAt, Kind: faults.SwitchReboot, Target: "a",
			BootDelay: 5 * netsim.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}

	prober := endhost.NewProber(senders[0])
	ctl := NewStarController(sim, senders[0], prober,
		receivers[0].MAC, receivers[0].IP)
	ctl.Start()
	defer ctl.Stop()

	// Converged before the crash: the bottleneck register carries the
	// (near-)capacity fair share.
	sim.RunUntil(rebootAt)
	const capacity = 1.25e6 // 10 Mb/s in bytes/sec
	if ctl.LastRate < 0.65*capacity {
		t.Fatalf("pre-reboot rate %.0f B/s, want near capacity (%.0f)", ctl.LastRate, capacity)
	}
	bnPort := a.Port(0)

	// The crash wipes the register the controller installed.
	sim.RunUntil(rebootAt + netsim.Millisecond)
	if a.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", a.Epoch())
	}
	if got := bnPort.Scratch(0); got != 0 {
		t.Fatalf("rate register survived the reboot: %d", got)
	}

	// Detection and re-seeding are bounded: within a handful of control
	// intervals after boot, the epoch bump is observed, the register is
	// re-seeded, and the loop re-converges.
	deadline := rebootAt + 20*ControlPeriod
	sim.RunUntil(deadline)
	if ctl.EpochBumps == 0 {
		t.Fatal("controller never noticed the epoch bump")
	}
	if ctl.Reinits == 0 {
		t.Fatal("controller never re-seeded the wiped rate register")
	}
	if got := bnPort.Scratch(0); got == 0 {
		t.Fatal("rate register still zero after re-seeding window")
	}

	sim.RunUntil(deadline + 2*netsim.Second)
	if ctl.LastRate < 0.65*capacity {
		t.Fatalf("post-reboot rate %.0f B/s did not re-converge (capacity %.0f)",
			ctl.LastRate, capacity)
	}
	if ctl.haveCaps == false {
		t.Fatal("controller fell back to discovery and never finished")
	}
}
