package faults_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// A gray failure darkens exactly one direction: forward traffic
// vanishes while the reverse path keeps delivering, and recovery
// restores the dead direction without ever having touched the live one.
func TestGrayFailureIsUnidirectional(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		// Dir 0 is the first registered channel: S0 port 0's egress,
		// i.e. the S0→S1 direction of the backbone.
		{At: 40 * netsim.Millisecond, Kind: faults.LinkGrayDown, Target: "backbone", Dir: 0},
		{At: 80 * netsim.Millisecond, Kind: faults.LinkGrayUp, Target: "backbone", Dir: 0},
	}})

	if got := r.pump(10*netsim.Millisecond, 30*netsim.Millisecond); got != 20 {
		t.Fatalf("pre-fault delivered %d/20", got)
	}

	// During the gray window: src→dst crosses the dead S0→S1 direction
	// and must vanish; dst→src rides the untouched reverse channel.
	beforeFwd, beforeRev := r.dst.Received, r.src.Received
	for at := 45 * netsim.Millisecond; at < 65*netsim.Millisecond; at += netsim.Millisecond {
		r.sim.At(at, func() {
			r.src.Send(r.src.NewPacket(r.dst.MAC, r.dst.IP, 5000, 5001, 200))
			r.dst.Send(r.dst.NewPacket(r.src.MAC, r.src.IP, 5001, 5000, 200))
		})
	}
	r.sim.RunUntil(75 * netsim.Millisecond)
	if got := r.dst.Received - beforeFwd; got != 0 {
		t.Fatalf("gray-down direction delivered %d packets", got)
	}
	if got := r.src.Received - beforeRev; got != 20 {
		t.Fatalf("reverse direction delivered %d/20 during the gray failure", got)
	}

	// Only the darkened channel counted down-drops.
	fwd := r.sws[0].Port(0).Channel()
	rev := r.sws[1].Port(0).Channel()
	if fwd.PacketsDownDrops == 0 {
		t.Fatal("dead direction recorded no down-drops")
	}
	if rev.PacketsDownDrops != 0 {
		t.Fatalf("live direction recorded %d down-drops", rev.PacketsDownDrops)
	}

	if got := r.pump(85*netsim.Millisecond, 105*netsim.Millisecond); got != 20 {
		t.Fatalf("post-recovery delivered %d/20", got)
	}
	if inject, recover := faultSpans(r.tracer); inject != 1 || recover != 1 {
		t.Fatalf("fault spans: inject=%d recover=%d, want 1/1", inject, recover)
	}
}

// Gray events are visible in the span stream: inject and recover spans
// carry the darkened channel's trace id as Node and the direction index
// in B, so a trace reader can tell *which way* the link died.
func TestGraySpansNameTheDirection(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 10 * netsim.Millisecond, Kind: faults.LinkGrayDown, Target: "backbone", Dir: 1},
		{At: 20 * netsim.Millisecond, Kind: faults.LinkGrayUp, Target: "backbone", Dir: 1},
	}})
	r.sim.RunUntil(30 * netsim.Millisecond)

	wantNode := r.sws[1].Port(0).Channel().TraceID() // Dir 1: the S1→S0 channel
	var inject, recover int
	for _, ev := range r.tracer.Events() {
		switch {
		case ev.Stage == obs.StageFaultInject && faults.Kind(ev.A) == faults.LinkGrayDown:
			inject++
			if ev.Node != wantNode || ev.B != 1 {
				t.Fatalf("inject span node=%d B=%d, want node=%d B=1", ev.Node, ev.B, wantNode)
			}
		case ev.Stage == obs.StageFaultRecover && faults.Kind(ev.A) == faults.LinkGrayUp:
			recover++
			if ev.Node != wantNode || ev.B != 1 {
				t.Fatalf("recover span node=%d B=%d, want node=%d B=1", ev.Node, ev.B, wantNode)
			}
		}
	}
	if inject != 1 || recover != 1 {
		t.Fatalf("gray spans: inject=%d recover=%d, want 1/1", inject, recover)
	}
}

// An out-of-range direction fails Schedule's up-front validation.
func TestGrayValidation(t *testing.T) {
	r := newRig(t, faults.Plan{})
	err := r.inj.Schedule(faults.Plan{Events: []faults.Event{
		{At: netsim.Millisecond, Kind: faults.LinkGrayDown, Target: "backbone", Dir: 2},
	}})
	if err == nil {
		t.Fatal("out-of-range Dir passed validation")
	}
	err = r.inj.Schedule(faults.Plan{Events: []faults.Event{
		{At: netsim.Millisecond, Kind: faults.LinkGrayDown, Target: "nolink"},
	}})
	if err == nil {
		t.Fatal("unknown link passed validation")
	}
}
