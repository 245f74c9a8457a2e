package asic_test

import (
	"fmt"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/verify"
)

// TestSRAMBounds is the regression test for the out-of-range SRAM
// accessors: a buggy (or hostile) control program indexing outside the
// bank must read zero and write nothing, not panic the switch.
func TestSRAMBounds(t *testing.T) {
	sim := netsim.New(1)
	sw := asic.New(sim, asic.Config{})

	sw.SetSRAM(5, 42)
	if got := sw.SRAM(5); got != 42 {
		t.Fatalf("SRAM(5) = %d, want 42", got)
	}
	for _, i := range []int{-1, -1000, mem.SRAMWords, mem.SRAMWords + 1, 1 << 20} {
		if got := sw.SRAM(i); got != 0 {
			t.Errorf("SRAM(%d) = %d, want 0", i, got)
		}
		sw.SetSRAM(i, 0xdead) // must be a no-op, not a panic
	}
	if got := sw.SRAM(5); got != 42 {
		t.Fatalf("out-of-range SetSRAM corrupted the bank: SRAM(5) = %d", got)
	}
}

// TestRebootWipesSoftState crash-restarts a switch and checks the
// reboot contract: scratch SRAM, the allocator, learned L2 entries and
// port scratch are wiped; the boot epoch increments; configured state
// (TCAM/L3 routes, link wiring) survives; and the switch is dark for
// exactly the boot delay.
func TestRebootWipesSoftState(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(5 * netsim.Millisecond)

	// Plant soft state of every kind.
	sw.SetSRAM(0, 0xdeadbeef)
	if _, err := sw.Allocator().Alloc("tally", 8); err != nil {
		t.Fatal(err)
	}
	sw.Port(0).SetScratch(0, 777)
	view := sw.ViewForTesting(nil, 0)
	if l2, _ := view.Load(mem.SwitchBase + mem.SwitchL2Size); l2 == 0 {
		t.Fatal("PrimeL2 learned nothing; test is vacuous")
	}

	const bootDelay = 2 * netsim.Millisecond
	rebootAt := sim.Now()
	sw.Reboot(bootDelay)

	if got := sw.Epoch(); got != 1 {
		t.Fatalf("Epoch = %d, want 1", got)
	}
	if !sw.Booting() {
		t.Fatal("switch not booting right after Reboot")
	}
	if got := sw.SRAM(0); got != 0 {
		t.Fatalf("SRAM survived reboot: %#x", got)
	}
	if _, ok := sw.Allocator().Lookup("tally"); ok {
		t.Fatal("allocator region survived reboot")
	}
	if got := sw.Port(0).Scratch(0); got != 0 {
		t.Fatalf("port scratch survived reboot: %d", got)
	}
	if l2, _ := view.Load(mem.SwitchBase + mem.SwitchL2Size); l2 != 0 {
		t.Fatalf("L2 table survived reboot: %d entries", l2)
	}

	// Packets sent while the switch is dark vanish (and are counted).
	base := h2.Received
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1000, 2000, 100))
	sim.RunUntil(rebootAt + bootDelay/2)
	if h2.Received != base {
		t.Fatalf("packet delivered through a dark switch")
	}

	sim.RunUntil(rebootAt + bootDelay + netsim.Millisecond)
	if sw.Booting() {
		t.Fatal("switch still booting after the boot delay")
	}
	if sw.RebootDrops() == 0 {
		t.Fatal("dark-period packet not counted in RebootDrops")
	}

	// Forwarding resumes: L2 is relearned by flooding, like a cold boot.
	h1.Send(h1.NewPacket(h2.MAC, h2.IP, 1000, 2000, 100))
	sim.RunUntil(sim.Now() + 10*netsim.Millisecond)
	if h2.Received == base {
		t.Fatal("forwarding did not resume after boot")
	}
}

// TestRebootEpochVisibleToTPP sends a plain PUSH [Switch:Epoch] collect
// probe before and after a crash-restart: the epoch word must be
// readable through the unified memory map by an ordinary TPP, and the
// program must pass static verification under default device limits.
func TestRebootEpochVisibleToTPP(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(5 * netsim.Millisecond)

	prog := func() *core.TPP {
		tpp, err := endhost.CollectProgram(
			[]mem.Addr{mem.SwitchBase + mem.SwitchEpoch}, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		return tpp
	}
	if res := verify.Verify(prog(), verify.Config{}); !res.OK() {
		t.Fatalf("verifier rejects the epoch collect program: %v", res)
	}

	prober := endhost.NewProber(h1)
	readEpoch := func() uint32 {
		var got uint32
		ok := false
		prober.Probe(h2.MAC, h2.IP, prog(), func(e *core.TPP) {
			got = e.Word(0)
			ok = true
		})
		sim.RunUntil(sim.Now() + 20*netsim.Millisecond)
		if !ok {
			t.Fatal("epoch probe echo never arrived")
		}
		return got
	}

	if e := readEpoch(); e != 0 {
		t.Fatalf("pre-reboot epoch = %d, want 0", e)
	}
	sw.Reboot(netsim.Millisecond)
	sim.RunUntil(sim.Now() + 2*netsim.Millisecond)
	n.PrimeL2(5 * netsim.Millisecond) // relearn L2 after the wipe
	if e := readEpoch(); e != 1 {
		t.Fatalf("post-reboot epoch = %d, want 1", e)
	}
}

// TestThrottleForwardsUnexecuted exhausts the TCPU admission gate and
// checks the line-rate degradation contract: throttled packets still
// forward (and echo back), carry FlagThrottled with no execution, and
// the tpps_throttled counter, metric and StageThrottle span stream all
// agree exactly.
func TestThrottleForwardsUnexecuted(t *testing.T) {
	sim := netsim.New(1)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 12)
	n := topo.NewNetwork(sim)
	// One token, effectively no refill: the first TPP executes, every
	// later one is throttled.
	sw := n.AddSwitch(asic.Config{Ports: 4, TPPRate: 1e-9, TPPBurst: 1,
		Metrics: reg, Trace: tr})
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(5 * netsim.Millisecond)

	prober := endhost.NewProber(h1)
	const probes = 3
	var executed, throttled int
	for i := 0; i < probes; i++ {
		prober.Probe(h2.MAC, h2.IP, queueProbe(3), func(e *core.TPP) {
			if e.Flags&core.FlagThrottled != 0 {
				throttled++
				if e.Ptr != 0 {
					t.Errorf("throttled TPP was executed: SP = %d", e.Ptr)
				}
			} else {
				executed++
				if e.Ptr == 0 {
					t.Error("admitted TPP was not executed")
				}
			}
		})
	}
	sim.RunUntil(50 * netsim.Millisecond)

	if executed != 1 || throttled != probes-1 {
		t.Fatalf("executed=%d throttled=%d, want 1 and %d", executed, throttled, probes-1)
	}
	if got := sw.TPPsThrottled(); got != uint64(probes-1) {
		t.Fatalf("TPPsThrottled = %d, want %d", got, probes-1)
	}

	// Counter, metric and span stream must reconcile exactly.
	snap := reg.Snapshot(int64(sim.Now()))
	m, ok := snap.Get(fmt.Sprintf("switch/%d/tpps_throttled", sw.ID()))
	if !ok || uint64(m.Value) != sw.TPPsThrottled() {
		t.Fatalf("metric tpps_throttled = %v (ok=%v), want %d", m.Value, ok, sw.TPPsThrottled())
	}
	spans := 0
	for _, ev := range tr.Events() {
		if ev.Stage == obs.StageThrottle {
			spans++
		}
	}
	if uint64(spans) != sw.TPPsThrottled() {
		t.Fatalf("StageThrottle spans = %d, want %d", spans, sw.TPPsThrottled())
	}
}

// TestThrottleRefill verifies the bucket refills from simulated time:
// after waiting long enough at a finite rate, a fresh TPP executes
// again.
func TestThrottleRefill(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, TPPRate: 100, TPPBurst: 1}) // 1 token / 10ms
	h1, h2 := n.AddHost(), n.AddHost()
	n.LinkHost(h1, sw, edge)
	n.LinkHost(h2, sw, edge)
	n.PrimeL2(5 * netsim.Millisecond)

	prober := endhost.NewProber(h1)
	send := func() (flags uint8) {
		done := false
		prober.Probe(h2.MAC, h2.IP, queueProbe(3), func(e *core.TPP) {
			flags = e.Flags
			done = true
		})
		sim.RunUntil(sim.Now() + 5*netsim.Millisecond)
		if !done {
			t.Fatal("probe echo never arrived")
		}
		return flags
	}

	if f := send(); f&core.FlagThrottled != 0 {
		t.Fatal("first probe throttled with a full bucket")
	}
	if f := send(); f&core.FlagThrottled == 0 {
		t.Fatal("second probe admitted before the bucket refilled")
	}
	sim.RunUntil(sim.Now() + 20*netsim.Millisecond) // > 1 token refilled
	if f := send(); f&core.FlagThrottled != 0 {
		t.Fatal("probe throttled after the bucket refilled")
	}
	if got := sw.TPPsThrottled(); got != 1 {
		t.Fatalf("TPPsThrottled = %d, want 1", got)
	}
}

// TestRebootFlushesLanes crashes a switch while packets wait in the
// netsim lane of its ingress link: N whose last bit has arrived, inside
// the parse/lookup pipeline latency, and M still in flight.  The first
// arrived before the crash and the rest arrive inside the boot window,
// so all N+M become RebootDrops at their firing times, none is
// forwarded, the event queue returns to the housekeeping ticker alone,
// and every pooled packet has left the pool's books.  It runs in the
// soak-pooldebug set too, where a lane handing a packet over twice (or
// never) trips the sanitizer.
func TestRebootFlushesLanes(t *testing.T) {
	const (
		pipeline  = 20 * netsim.Microsecond
		wireDelay = 50 * netsim.Microsecond
		crashAt   = 60 * netsim.Microsecond
		bootDelay = 100 * netsim.Microsecond
		burst     = 400
	)
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, PipelineLatency: pipeline})
	h1, h2 := n.AddHost(), n.AddHost()
	fast := topo.LinkSpec{RateBps: 10e9, Delay: wireDelay}
	n.LinkHost(h1, sw, fast)
	n.LinkHost(h2, sw, fast)
	n.PrimeL2(5 * netsim.Millisecond)
	h1.NIC.SetCapacity(burst)

	idle := sim.Pending() // the switch's housekeeping ticker
	switched, delivered := sw.PacketsSwitched(), h2.Received
	start := sim.Now()

	proto := h1.NewPacket(h2.MAC, h2.IP, 1000, 2000, 64)
	pkts := make([]*core.Packet, burst)
	for i := range pkts {
		pkts[i] = sim.Pool().Clone(proto)
		if !h1.Send(pkts[i]) {
			t.Fatalf("NIC refused packet %d", i)
		}
	}

	// Frame i's last bit arrives at (i+1)*ser + wireDelay; it is in the
	// pipeline at the crash if it arrived by then (none has yet left:
	// crashAt < wireDelay + pipeline), on the wire otherwise.
	ser := sw.Port(0).Channel().SerializationDelay(proto.WireLen())
	inPipeline := 0
	for i := 1; i <= burst; i++ {
		if netsim.Time(i)*ser+wireDelay <= crashAt {
			inPipeline++
		}
	}
	onWire := burst - inPipeline
	if inPipeline < 50 || onWire < 50 || netsim.Time(burst)*ser >= crashAt {
		t.Fatalf("burst shape: %d in pipeline, %d on the wire, serialized in %v", inPipeline, onWire, netsim.Time(burst)*ser)
	}

	sim.RunUntil(start + crashAt)
	if got := sim.Pending(); got != idle+burst {
		t.Fatalf("Pending() = %d at the crash, want %d tickers + %d packets", got, idle, burst)
	}
	if got := sim.Stats().HeapPeak; got > idle+4 {
		t.Fatalf("heap peaked at %d with %d packets outstanding: the lanes are not holding them", got, burst)
	}
	sw.Reboot(bootDelay)
	if got := sw.RebootDrops(); got != 0 {
		t.Fatalf("RebootDrops = %d right after the crash: lane-held packets die at their firing time", got)
	}

	// Every frame that arrived by the crash has been delivered by
	// crashAt+pipeline.
	sim.RunUntil(start + crashAt + pipeline)
	if got := sw.RebootDrops(); got < uint64(inPipeline) {
		t.Fatalf("RebootDrops = %d once the pipeline emptied, want >= %d", got, inPipeline)
	}

	sim.RunUntil(start + crashAt + bootDelay + netsim.Millisecond)
	if sw.Booting() {
		t.Fatal("switch still booting")
	}
	if got := sw.RebootDrops(); got != burst {
		t.Fatalf("RebootDrops = %d, want %d (%d in pipeline + %d on the wire)", got, burst, inPipeline, onWire)
	}
	if sw.PacketsSwitched() != switched || h2.Received != delivered {
		t.Fatalf("crash forwarded packets: switched %d -> %d, delivered %d -> %d",
			switched, sw.PacketsSwitched(), delivered, h2.Received)
	}
	if got := sim.Pending(); got != idle {
		t.Fatalf("Pending() = %d after the flush, want the %d housekeeping ticker(s)", got, idle)
	}
	for i, p := range pkts {
		if p.Pooled() {
			t.Fatalf("packet %d still belongs to the pool: never recycled", i)
		}
	}
	if st := sim.Pool().Stats(); st.Issued != st.Recycled+st.Adopted {
		t.Fatalf("pool out of balance after the flush: %+v", st)
	}
}
