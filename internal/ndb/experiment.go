package ndb

import (
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
	"repro/internal/topo"
)

// Config parameterizes the forwarding-plane-debugger experiment on a
// 2x2 leaf-spine fabric.
type Config struct {
	Packets  int // instrumented data packets to trace
	EdgeMbps float64
	Seed     int64

	// Metrics and Trace, when non-nil, thread the telemetry subsystem
	// through every switch in the fabric (see internal/obs); the span
	// log then provides an out-of-band journey to cross-check the
	// in-band TPP traces (JourneyFromSpans).
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// DefaultConfig is the canonical run.
func DefaultConfig() Config {
	return Config{Packets: 200, EdgeMbps: 100, Seed: 1}
}

// Result summarizes one run.
type Result struct {
	Config Config

	// Phase 1: conforming network.
	CleanTraces     int
	CleanViolations int

	// Phase 2: after the injected misconfiguration (the controller's
	// shadow state goes stale).
	BadTraces      int
	BadViolations  []Violation
	ViolationKinds map[ViolationKind]int

	// Overhead comparison, TPP in-band bytes vs baseline packet
	// copies, over the same traffic.
	TPPInBandBytes    uint64
	BaselineCopies    uint64
	BaselineCopyBytes uint64
	JourneysAgree     bool

	// LastUID and LastTrace identify the final in-band trace collected,
	// so out-of-band span logs (Config.Trace) can be cross-validated
	// against it with JourneyFromSpans.
	LastUID   uint64
	LastTrace []HopRecord
}

// Run executes the experiment: trace a conforming fabric, inject a
// stale-rule misconfiguration, and show the TPP traces catching it.
func Run(cfg Config) Result {
	sim := netsim.New(cfg.Seed)
	edge := topo.Mbps(cfg.EdgeMbps, 10*netsim.Microsecond)
	fabric := topo.Mbps(cfg.EdgeMbps, 10*netsim.Microsecond)
	net := topo.LeafSpine(sim, 2, 2, 1, edge, fabric,
		topo.Uniform(asic.Config{Metrics: cfg.Metrics, Trace: cfg.Trace}), cfg.Trace)
	leaves, spines := net.Leaves, net.Spines
	src, dst := net.LeafHosts[0][0], net.LeafHosts[1][0]

	ctl := NewController()
	ctl.InstallPath(dst.IP, 10, []PathHop{
		{Switch: leaves[0], OutPort: net.Uplink(0)},
		{Switch: spines[0], OutPort: net.Downlink(1)},
		{Switch: leaves[1], OutPort: net.HostPort(1, 0)},
	})
	// The alternate spine also knows the way (valid state, just not
	// the intended path for this destination).
	v, m := tcam.DstIPRule(dst.IP)
	spines[1].TCAM().Insert(10, v, m, tcam.Action{OutPort: net.Downlink(1)})
	// Reverse path so nothing floods.
	ctl.InstallPath(src.IP, 10, []PathHop{
		{Switch: leaves[1], OutPort: net.Uplink(0)},
		{Switch: spines[0], OutPort: net.Downlink(0)},
		{Switch: leaves[0], OutPort: net.HostPort(0, 0)},
	})

	copyCollector := NewCopyCollector()
	for _, sw := range net.Switches {
		copyCollector.AttachTo(sw)
	}

	res := Result{Config: cfg, ViolationKinds: make(map[ViolationKind]int)}
	var lastTrace []HopRecord
	var lastUID uint64
	verify := func(pkt *core.Packet) {
		if pkt.TPP == nil {
			return
		}
		trace := ParseTrace(pkt.TPP)
		lastTrace = trace
		lastUID = pkt.Meta.UID
		res.TPPInBandBytes += uint64(pkt.TPP.WireLen())
		violations := ctl.VerifyTrace(dst.IP, trace)
		if len(violations) == 0 {
			res.CleanTraces++
			return
		}
		res.BadTraces++
		res.BadViolations = append(res.BadViolations, violations...)
		for _, v := range violations {
			res.ViolationKinds[v.Kind]++
		}
	}
	dst.HandleDefault(verify)

	send := func(count int) {
		for i := 0; i < count; i++ {
			pkt := src.NewPacket(dst.MAC, dst.IP, 6000, 6001, 200)
			Instrument(pkt, 5)
			src.Send(pkt)
		}
		sim.RunUntil(sim.Now() + 500*netsim.Millisecond)
	}

	// Phase 1: conforming fabric.
	send(cfg.Packets / 2)
	res.CleanViolations = len(res.BadViolations)

	// The TPP journey and the baseline copy journey must agree.
	copyTrace := copyCollector.Journey(lastUID)
	res.JourneysAgree = tracesEqual(lastTrace, copyTrace)

	// Phase 2: inject the misconfiguration §2.3 worries about — the
	// hardware rule changes underneath the controller (rerouted via
	// the other spine, bumping the entry version), so the controller's
	// shadow state is stale.
	intended := ctl.Expected(dst.IP)
	leaves[0].TCAM().Update(intended[0].EntryID, tcam.Action{OutPort: net.Uplink(1)})
	send(cfg.Packets / 2)

	res.BaselineCopies = copyCollector.Copies
	res.BaselineCopyBytes = copyCollector.CopyBytes
	res.LastUID = lastUID
	res.LastTrace = lastTrace
	return res
}

func tracesEqual(a, b []HopRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
