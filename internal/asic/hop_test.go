package asic_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// A switch hop is one event: the link into a port hands the switch a
// frame when the pipeline latency has elapsed after its last bit
// arrived.  The tests below pin what happens inside that window to what
// a separate arrival event and pipeline event made happen.

// hopRig is one switch between two hosts on 1 Gb/s links, h1's with
// 10 µs of propagation, L2 primed.
type hopRig struct {
	sim    *netsim.Sim
	sw     *asic.Switch
	h1, h2 *endhost.Host
	tr     *obs.Tracer
}

const hopDelay = 10 * netsim.Microsecond

func newHopRig(t *testing.T, pipeline, h2Delay netsim.Time) *hopRig {
	t.Helper()
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	tr := obs.NewTracer(1 << 12)
	sw := n.AddSwitch(asic.Config{Ports: 2, PipelineLatency: pipeline, Trace: tr})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, topo.Mbps(1000, hopDelay))
	n.LinkHost(h2, sw, topo.Mbps(1000, h2Delay))
	n.PrimeL2(5 * netsim.Millisecond)
	return &hopRig{sim: sim, sw: sw, h1: h1, h2: h2, tr: tr}
}

// send transmits a data frame from h1 to h2 through an idle NIC and
// returns the frame and the time its last bit reaches the switch.
func (r *hopRig) send(t *testing.T) (*core.Packet, netsim.Time) {
	t.Helper()
	pkt := r.h1.NewPacket(r.h2.MAC, r.h2.IP, 1000, 2000, 100)
	if r.h1.NIC.Channel().Busy() || !r.h1.Send(pkt) {
		t.Fatal("h1's NIC is not idle")
	}
	return pkt, r.h1.NIC.Channel().IdleAt() + hopDelay
}

// spanAt returns the time of uid's span at stage on the switch, or -1.
func (r *hopRig) spanAt(uid uint64, stage obs.Stage) netsim.Time {
	at := netsim.Time(-1)
	for _, ev := range r.tr.Events() {
		if ev.UID == uid && ev.Stage == stage && ev.Node == r.sw.ID() {
			at = netsim.Time(ev.At)
		}
	}
	return at
}

// A frame that landed while the switch was booting, and one a crash
// caught in the parse/lookup stages, are reboot drops even when the
// boot delay is over by the time the pipeline latency has elapsed; a
// frame that lands after the boot is forwarded.  The drops keep the
// times they had as separate events: at the arrival for the first
// (which never parses), at the pipeline's end for the second (which
// parsed at its arrival).
func TestRebootInPipelineWindowDrops(t *testing.T) {
	const (
		pipeline  = 20 * netsim.Microsecond
		bootDelay = 5 * netsim.Microsecond
	)
	r := newHopRig(t, pipeline, hopDelay)
	base := r.h2.Received

	// Lands during a boot that ends 3 µs after it.
	during, ta := r.send(t)
	r.sim.At(ta-2*netsim.Microsecond, func() { r.sw.Reboot(bootDelay) })
	r.sim.RunUntil(ta + pipeline + netsim.Millisecond)
	if got := r.sw.RebootDrops(); got != 1 || r.h2.Received != base {
		t.Fatalf("frame landing mid-boot: RebootDrops %d, delivered %d; want 1 and 0", got, r.h2.Received-base)
	}
	if got := r.spanAt(during.Meta.UID, obs.StageRebootDrop); got != ta {
		t.Fatalf("mid-boot drop recorded at %v, want its arrival %v", got, ta)
	}
	if got := r.spanAt(during.Meta.UID, obs.StageParser); got != -1 {
		t.Fatalf("a frame that landed mid-boot was parsed at %v", got)
	}

	// In the pipeline when a crash with a 5 µs boot hits.
	wiped, ta := r.send(t)
	r.sim.At(ta+5*netsim.Microsecond, func() { r.sw.Reboot(bootDelay) })
	r.sim.RunUntil(ta + pipeline + netsim.Millisecond)
	if got := r.sw.RebootDrops(); got != 2 || r.h2.Received != base {
		t.Fatalf("frame wiped mid-pipeline: RebootDrops %d, delivered %d; want 2 and 0", got, r.h2.Received-base)
	}
	if got := r.spanAt(wiped.Meta.UID, obs.StageParser); got != ta {
		t.Fatalf("wiped frame parsed at %v, want its arrival %v", got, ta)
	}
	if got := r.spanAt(wiped.Meta.UID, obs.StageRebootDrop); got != ta+pipeline {
		t.Fatalf("wiped frame dropped at %v, want the pipeline's end %v", got, ta+pipeline)
	}

	// Lands after the boot: forwarded.
	r.send(t)
	r.sim.RunUntil(r.sim.Now() + netsim.Millisecond)
	if got := r.sw.RebootDrops(); got != 2 || r.h2.Received != base+1 {
		t.Fatalf("frame after the boot: RebootDrops %d, delivered %d; want 2 and 1", got, r.h2.Received-base)
	}
}

// A link cut after a frame's last bit arrived spares it, though the
// link is still down when the switch takes the frame; a cut while its
// last bit is on the wire kills it, though the link is back up by then.
func TestLinkCutInPipelineWindow(t *testing.T) {
	const pipeline = 20 * netsim.Microsecond
	r := newHopRig(t, pipeline, hopDelay)
	up := r.h1.NIC.Channel()
	base := r.h2.Received

	_, ta := r.send(t)
	r.sim.At(ta+netsim.Microsecond, func() { up.SetUp(false) })
	r.sim.At(ta+pipeline+netsim.Microsecond, func() { up.SetUp(true) })
	r.sim.RunUntil(ta + pipeline + netsim.Millisecond)
	if r.h2.Received != base+1 || up.PacketsDownDrops != 0 {
		t.Fatalf("cut after the last bit: delivered %d, down drops %d; want 1 and 0",
			r.h2.Received-base, up.PacketsDownDrops)
	}

	_, ta = r.send(t)
	r.sim.At(ta-netsim.Nanosecond, func() { up.SetUp(false) })
	r.sim.At(ta+netsim.Microsecond, func() { up.SetUp(true) })
	r.sim.RunUntil(ta + pipeline + netsim.Millisecond)
	if r.h2.Received != base+1 || up.PacketsDownDrops != 1 {
		t.Fatalf("cut before the last bit: delivered %d, down drops %d; want 0 and 1",
			r.h2.Received-base-1, up.PacketsDownDrops)
	}
}

// [Link:RX-Bytes] counts a frame from its last bit's arrival: a TPP
// that reads its ingress port's counter sees the frame right behind it,
// which arrived inside its pipeline window.
func TestRXBytesCountsFramesInPipelineWindow(t *testing.T) {
	r := newHopRig(t, 20*netsim.Microsecond, hopDelay)
	in := r.sw.Port(0) // h1 was linked first
	if in.Channel() == nil || r.h1.NIC.Channel().SerializationDelay(200) >= 20*netsim.Microsecond {
		t.Fatal("rig: the follower must land inside the probe's pipeline window")
	}
	rx := mem.PortAbsBase + mem.Addr(in.ID()*mem.PortAbsStride+mem.PortRXBytes)
	before, ok := r.sw.ReadWord(rx)
	if !ok {
		t.Fatal("RX-Bytes unreadable")
	}

	prog := core.NewTPP(core.AddrStack, []core.Instruction{{Op: core.OpPUSH, A: uint16(rx)}}, 1)
	var got uint32
	echoed := false
	sent := r.h1.NIC.Channel().BytesSent
	endhost.NewProber(r.h1).Probe(r.h2.MAC, r.h2.IP, prog, func(e *core.TPP) { got, echoed = e.Word(0), true })
	probeWire := uint32(r.h1.NIC.Channel().BytesSent - sent)
	follower := r.h1.NewPacket(r.h2.MAC, r.h2.IP, 1000, 2000, 100)
	followerWire := uint32(follower.WireLen())
	r.h1.Send(follower)
	r.sim.RunUntil(r.sim.Now() + netsim.Millisecond)
	if !echoed {
		t.Fatal("no echo")
	}
	if want := before + probeWire + followerWire; got != want {
		t.Fatalf("RX-Bytes read %d after %d + probe %d + follower %d; want %d", got, before, probeWire, followerWire, want)
	}
}

// A TPP whose pipeline stage ends in the same nanosecond as its egress
// transmission, and that arrived after that transmission began, reads
// the queue after the transmit-complete has dequeued the next frame —
// as it did when the stage was an event queued on arrival, behind the
// transmit-complete event the earlier Send had reserved.  Here the
// probe's own Send precedes the egress Send, so the fold must run the
// transmit-complete ahead of its queued place; on a zero-delay egress
// into a host too, where the transmit-complete would otherwise ride on
// the frame's arrival at the host.
func TestTCPUReadsQueueAfterSameNanosecondTransmitComplete(t *testing.T) {
	for name, egress := range map[string]netsim.Time{"delayed": hopDelay, "zero-delay": 0} {
		t.Run(name, func(t *testing.T) {
			r := newHopRig(t, 0, egress) // the default 500 ns pipeline
			const pipeline = 500 * netsim.Nanosecond
			out := r.sw.Port(1) // toward h2
			filler := func() *core.Packet { return r.h1.NewPacket(r.h2.MAC, r.h2.IP, 1000, 2000, 958) }
			ser := out.Channel().SerializationDelay(filler().WireLen())

			prog := core.NewTPP(core.AddrStack, []core.Instruction{{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)}}, 1)
			got, echoed := uint32(0), false
			endhost.NewProber(r.h1).Probe(r.h2.MAC, r.h2.IP, prog, func(e *core.TPP) { got, echoed = e.Word(0), true })
			stageEnd := r.h1.NIC.Channel().IdleAt() + hopDelay + pipeline

			// Two frames enter the egress ser before the probe's stage
			// ends: the first is on the wire until exactly then, the
			// second waits.
			start := stageEnd - ser
			if start <= r.sim.Now() || start >= stageEnd-pipeline {
				t.Fatalf("rig: egress must start after the probe's Send and before its arrival (%v, %v, %v)", r.sim.Now(), start, stageEnd-pipeline)
			}
			waiting := 0
			r.sim.At(start, func() {
				r.sw.InjectLocal(filler(), out.ID())
				r.sw.InjectLocal(filler(), out.ID())
				waiting = out.QueueBytes()
			})
			r.sim.RunUntil(stageEnd + netsim.Millisecond)
			if !echoed || waiting == 0 {
				t.Fatalf("rig: echoed %v, %d bytes waiting behind the first frame", echoed, waiting)
			}
			if got != 0 {
				t.Fatalf("TPP read %d queued bytes; want 0: the transmit-complete due in its nanosecond runs first", got)
			}
		})
	}
}
