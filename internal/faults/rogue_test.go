package faults_test

import (
	"reflect"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// rogueRig is a guarded 2-switch line with the source host sealed as
// tenant 7 and registered on the injector as "h0".  The plan is built
// by the caller after construction so events can target dst.
type rogueRig struct {
	sim      *netsim.Sim
	src, dst *endhost.Host
	sws      []*asic.Switch
	inj      *faults.Injector
	tracer   *obs.Tracer
}

func newRogueRig(t *testing.T) *rogueRig {
	t.Helper()
	sim := netsim.New(1)
	link := topo.Mbps(100, 10*netsim.Microsecond)
	tracer := obs.NewTracer(1 << 16)
	n, src, dst, sws := topo.Line(sim, 2, link, link, topo.Uniform(asic.Config{Trace: tracer, Guard: true}), tracer)
	n.PrimeL2(5 * netsim.Millisecond)
	for _, sw := range sws {
		if _, err := sw.GrantTenant(7, guard.DefaultACL(), 64, 1, 0); err != nil {
			t.Fatalf("GrantTenant: %v", err)
		}
	}
	src.NIC.SetTenant(7)

	inj := faults.NewInjector(sim, tracer)
	inj.RegisterHost("h0", src)
	return &rogueRig{sim: sim, src: src, dst: dst, sws: sws, inj: inj, tracer: tracer}
}

func (r *rogueRig) schedule(t *testing.T, plan faults.Plan) {
	t.Helper()
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
}

// The flood starts at the event's At and keeps its rate for the rest
// of the run: 2000 pps is one forgery every 500µs, the first one
// period after At.
func TestRogueTenantFloodsAndClears(t *testing.T) {
	r := newRogueRig(t)
	r.schedule(t, faults.Plan{Seed: 11, Events: []faults.Event{
		{At: 10 * netsim.Millisecond, Kind: faults.RogueTenant, Target: "h0",
			PPS: 2000, DstMAC: r.dst.MAC, DstIP: r.dst.IP},
	}})
	for _, step := range []struct {
		until netsim.Time
		sent  uint64
	}{
		{10 * netsim.Millisecond, 0},
		{30 * netsim.Millisecond, 40},
		{60 * netsim.Millisecond, 100},
	} {
		r.sim.RunUntil(step.until)
		if r.inj.RogueSent != step.sent {
			t.Fatalf("at %v: rogue sent %d, want %d", step.until, r.inj.RogueSent, step.sent)
		}
	}
	if inject, recover := faultSpans(r.tracer); inject != 1 || recover != 0 {
		t.Fatalf("fault spans: inject=%d recover=%d, want 1/0", inject, recover)
	}
}

func TestRogueTenantForgeriesAreDeniedNotDropped(t *testing.T) {
	r := newRogueRig(t)
	r.schedule(t, faults.Plan{Seed: 3, Events: []faults.Event{
		{At: 10 * netsim.Millisecond, Kind: faults.RogueTenant, Target: "h0",
			PPS: 1000, DstMAC: r.dst.MAC, DstIP: r.dst.IP},
	}})
	r.sim.RunUntil(50 * netsim.Millisecond)

	if r.inj.RogueSent == 0 {
		t.Fatal("no forgeries sent")
	}
	// Fail-forward: denied writes don't drop the packet — the
	// forgeries keep forwarding and arrive at the destination.
	if r.dst.Received == 0 {
		t.Fatal("forgeries were dropped instead of failing forward")
	}
	// The guard denied the out-of-partition and port-scratch writes.
	if r.sws[0].TPPsDenied() == 0 {
		t.Fatal("guarded switch denied nothing")
	}
	if got := r.sws[0].Guard().Denied(7); got != r.sws[0].TPPsDenied() {
		t.Fatalf("tenant 7 denials %d != switch total %d (only tenant active)",
			got, r.sws[0].TPPsDenied())
	}
}

func TestRogueTenantReplaysBySeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		r := newRogueRig(t)
		r.schedule(t, faults.Plan{Seed: seed, Events: []faults.Event{
			{At: 10 * netsim.Millisecond, Kind: faults.RogueTenant, Target: "h0",
				PPS: 1500, DstMAC: r.dst.MAC, DstIP: r.dst.IP},
		}})
		r.sim.RunUntil(40 * netsim.Millisecond)
		var addrs []uint64
		for _, ev := range r.tracer.Events() {
			if ev.Stage == obs.StageAccessDeny {
				addrs = append(addrs, ev.A)
			}
		}
		if len(addrs) == 0 {
			t.Fatalf("seed %d: no denial spans", seed)
		}
		return addrs
	}
	a1, a2, b := run(21), run(21), run(22)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed produced different forgery sequences")
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds produced the identical forgery sequence")
	}
}

func TestRogueValidation(t *testing.T) {
	sim := netsim.New(1)
	inj := faults.NewInjector(sim, nil)
	h := endhost.NewHost(sim, core.MACFromUint64(1), 0x0a000001)
	inj.RegisterHost("h", h)

	bad := []faults.Plan{
		{Events: []faults.Event{{Kind: faults.RogueTenant, Target: "nope", PPS: 100}}},
		{Events: []faults.Event{{Kind: faults.RogueTenant, Target: "h"}}}, // PPS 0
		{Events: []faults.Event{{Kind: faults.RogueTenant, Target: "h", PPS: -5}}},
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
