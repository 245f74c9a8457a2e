package faults_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// rig is a 2-switch line (H0 - S0 - S1 - H1) with the backbone link
// and both switches registered on an injector.
type rig struct {
	sim      *netsim.Sim
	net      *topo.Network
	src, dst *endhost.Host
	sws      []*asic.Switch
	inj      *faults.Injector
	tracer   *obs.Tracer
}

func newRig(t *testing.T, plan faults.Plan) *rig {
	t.Helper()
	return newRigWith(t, plan, asic.Config{})
}

// newRigWith is newRig with both switches built from cfg (the rig sets
// its Trace).
func newRigWith(t *testing.T, plan faults.Plan, cfg asic.Config) *rig {
	t.Helper()
	sim := netsim.New(1)
	edge := topo.Mbps(100, 10*netsim.Microsecond)
	backbone := topo.Mbps(100, 10*netsim.Microsecond)
	// The switches share the tracer so switch-emitted spans (reboot,
	// boot-complete) land in the same stream as the injector's.
	tracer := obs.NewTracer(1 << 16)
	cfg.Trace = tracer
	n, src, dst, sws := topo.Line(sim, 2, edge, backbone, topo.Uniform(cfg), tracer)
	n.PrimeL2(5 * netsim.Millisecond)

	inj := faults.NewInjector(sim, tracer)
	// The backbone is S0 port 0 <-> S1 port 0 (switch-switch links are
	// wired before host links in topo.Line).
	inj.RegisterLink("backbone", sws[0].Port(0).Channel(), sws[1].Port(0).Channel())
	inj.RegisterSwitch("s0", sws[0])
	inj.RegisterSwitch("s1", sws[1])
	if err := inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return &rig{sim: sim, net: n, src: src, dst: dst, sws: sws, inj: inj, tracer: tracer}
}

// pump sends one 200-byte packet src->dst every millisecond for the
// given span and returns how many arrived.
func (r *rig) pump(from, to netsim.Time) (delivered uint64) {
	before := r.dst.Received
	for at := from; at < to; at += netsim.Millisecond {
		r.sim.At(at, func() {
			r.src.Send(r.src.NewPacket(r.dst.MAC, r.dst.IP, 5000, 5001, 200))
		})
	}
	r.sim.RunUntil(to + 10*netsim.Millisecond)
	return r.dst.Received - before
}

// faultSpans counts the injector's span stream by direction: the
// ledger of applied events.
func faultSpans(tr *obs.Tracer) (inject, recover int) {
	for _, ev := range tr.Events() {
		switch ev.Stage {
		case obs.StageFaultInject:
			inject++
		case obs.StageFaultRecover:
			recover++
		}
	}
	return inject, recover
}

func TestLinkFlapStopsAndRestoresTraffic(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: faults.Flap(
		"backbone", 40*netsim.Millisecond, 30*netsim.Millisecond)})

	// pump runs the sim 10ms past each window, so windows are spaced to
	// stay ahead of the clock: [10,35) ends at 45, [46,65) ends at 75.
	if got := r.pump(10*netsim.Millisecond, 35*netsim.Millisecond); got != 25 {
		t.Fatalf("pre-fault delivered %d/25", got)
	}
	if got := r.pump(46*netsim.Millisecond, 65*netsim.Millisecond); got != 0 {
		t.Fatalf("down link delivered %d packets", got)
	}
	if got := r.pump(75*netsim.Millisecond, 100*netsim.Millisecond); got != 25 {
		t.Fatalf("post-recovery delivered %d/25", got)
	}
	if inject, recover := faultSpans(r.tracer); inject != 1 || recover != 1 {
		t.Fatalf("fault spans: inject=%d recover=%d, want 1/1", inject, recover)
	}
}

func TestBlackholeSwallowsOnlyTargetedTraffic(t *testing.T) {
	var dstIP uint32
	// Build once to learn the dst IP, then rebuild with the plan.
	{
		sim := netsim.New(1)
		_, _, d, _ := topo.Line(sim, 2, topo.Mbps(100, netsim.Microsecond),
			topo.Mbps(100, netsim.Microsecond), nil, nil)
		dstIP = d.IP
	}
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 40 * netsim.Millisecond, Kind: faults.Blackhole, Target: "s0", DstIP: dstIP},
		{At: 80 * netsim.Millisecond, Kind: faults.ClearBlackhole, Target: "s0", DstIP: dstIP},
	}})

	if got := r.pump(10*netsim.Millisecond, 30*netsim.Millisecond); got != 20 {
		t.Fatalf("pre-fault delivered %d/20", got)
	}
	// While the hole is in: forward traffic vanishes, reverse traffic
	// (dst -> src) is untouched.  Schedule both before running.
	beforeFwd, beforeRev := r.dst.Received, r.src.Received
	for at := 45 * netsim.Millisecond; at < 65*netsim.Millisecond; at += netsim.Millisecond {
		r.sim.At(at, func() {
			r.src.Send(r.src.NewPacket(r.dst.MAC, r.dst.IP, 5000, 5001, 200))
			r.dst.Send(r.dst.NewPacket(r.src.MAC, r.src.IP, 5001, 5000, 200))
		})
	}
	r.sim.RunUntil(75 * netsim.Millisecond)
	if got := r.dst.Received - beforeFwd; got != 0 {
		t.Fatalf("blackholed dst received %d packets", got)
	}
	if got := r.src.Received - beforeRev; got != 20 {
		t.Fatalf("reverse path delivered %d/20 during the hole", got)
	}
	if got := r.pump(85*netsim.Millisecond, 105*netsim.Millisecond); got != 20 {
		t.Fatalf("post-clear delivered %d/20", got)
	}
	if r.sws[0].TCAM().Size() != 0 {
		t.Fatal("ClearBlackhole left the drop rule installed")
	}
}

// TestLossEventsReplayBySeed: the same plan and seed produce the
// identical delivery pattern; a different seed produces a different
// one (with overwhelming probability at these sample sizes).
func TestLossEventsReplayBySeed(t *testing.T) {
	run := func(seed int64) uint64 {
		r := newRig(t, faults.Plan{Seed: seed, Events: []faults.Event{
			{At: 10 * netsim.Millisecond, Kind: faults.LinkBurstyLoss, Target: "backbone",
				PGoodBad: 0.05, PBadGood: 0.2, LossGood: 0.01, LossBad: 0.9},
		}})
		return r.pump(10*netsim.Millisecond, 400*netsim.Millisecond)
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatalf("same seed diverged: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds identical: %d", a1)
	}
	if a1 == 0 || a1 == 390 {
		t.Fatalf("bursty loss had no effect: delivered %d/390", a1)
	}
}

func TestClearLossRestoresLossless(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 3, Events: []faults.Event{
		{At: 10 * netsim.Millisecond, Kind: faults.LinkBurstyLoss, Target: "backbone",
			LossGood: 1, LossBad: 1},
		{At: 50 * netsim.Millisecond, Kind: faults.ClearLoss, Target: "backbone"},
	}})
	if got := r.pump(15*netsim.Millisecond, 45*netsim.Millisecond); got != 0 {
		t.Fatalf("blackout delivered %d", got)
	}
	if got := r.pump(56*netsim.Millisecond, 86*netsim.Millisecond); got != 30 {
		t.Fatalf("after ClearLoss delivered %d/30", got)
	}
}

func TestFaultSpansInStream(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: faults.Flap(
		"backbone", 10*netsim.Millisecond, 10*netsim.Millisecond)})
	r.sim.RunUntil(50 * netsim.Millisecond)

	for _, ev := range r.tracer.Events() {
		switch ev.Stage {
		case obs.StageFaultInject:
			if faults.Kind(ev.A) != faults.LinkDown || ev.At != int64(10*netsim.Millisecond) {
				t.Errorf("inject span kind %v at %d, want link-down at 10ms", faults.Kind(ev.A), ev.At)
			}
		case obs.StageFaultRecover:
			if faults.Kind(ev.A) != faults.LinkUp || ev.At != int64(20*netsim.Millisecond) {
				t.Errorf("recover span kind %v at %d, want link-up at 20ms", faults.Kind(ev.A), ev.At)
			}
		}
	}
	if inject, recover := faultSpans(r.tracer); inject != 1 || recover != 1 {
		t.Fatalf("fault spans: inject=%d recover=%d, want 1/1", inject, recover)
	}
}

func TestScheduleValidation(t *testing.T) {
	sim := netsim.New(1)
	inj := faults.NewInjector(sim, nil)
	ch := netsim.NewChannel(sim, 1000, 0, rxSink{}, 0)
	inj.RegisterLink("l", ch)

	bad := []faults.Plan{
		{Events: []faults.Event{{Kind: faults.LinkDown, Target: "nope"}}},
		{Events: []faults.Event{{Kind: faults.Blackhole, Target: "l"}}}, // link, not switch
		{Events: []faults.Event{{Kind: faults.LinkBurstyLoss, Target: "l", LossBad: 1.5}}},
		{Events: []faults.Event{{Kind: faults.LinkBurstyLoss, Target: "l", PGoodBad: -0.1}}},
		{Events: []faults.Event{{Kind: faults.Kind(250), Target: "l"}}},
	}
	for i, p := range bad {
		if err := inj.Schedule(p); err == nil {
			t.Errorf("plan %d scheduled despite invalid event", i)
		}
	}
	if sim.Pending() != 0 {
		t.Fatal("invalid plans left events armed")
	}
}

// TestKindNumbersPinned: fault spans carry the kind's number in A, so
// a kind keeps its number when others are deleted; the numbers a
// deleted kind held name nothing.
func TestKindNumbersPinned(t *testing.T) {
	for _, pin := range []struct {
		kind faults.Kind
		num  uint8
		name string
	}{
		{faults.LinkDown, 0, "link-down"},
		{faults.LinkUp, 1, "link-up"},
		{2, 2, "unknown"},
		{faults.LinkBurstyLoss, 3, "link-bursty-loss"},
		{faults.ClearLoss, 4, "clear-loss"},
		{faults.Blackhole, 5, "blackhole"},
		{faults.ClearBlackhole, 6, "clear-blackhole"},
		{7, 7, "unknown"},
		{8, 8, "unknown"},
		{faults.SwitchReboot, 9, "switch-reboot"},
		{faults.RogueTenant, 10, "rogue-tenant"},
		{11, 11, "unknown"},
		{faults.LinkGrayDown, 12, "link-gray-down"},
		{faults.LinkGrayUp, 13, "link-gray-up"},
		{14, 14, "unknown"},
	} {
		if uint8(pin.kind) != pin.num || pin.kind.String() != pin.name {
			t.Errorf("kind %d (%q), want %d (%q)", pin.kind, pin.kind, pin.num, pin.name)
		}
	}
}

type rxSink struct{}

func (rxSink) Receive(*core.Packet, int) {}
