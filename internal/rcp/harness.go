package rcp

import (
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Variant names a congestion-control scheme of the §2.2 experiments.
type Variant string

// The schemes.  RCP* and native RCP are the two curves of Figure 2 and
// live here; the TCP-style comparator is implemented by package aimd,
// which layers on this one (aimd.SchemeFor resolves all three).
const (
	VariantStar     Variant = "rcpstar"  // TPP + end-host implementation
	VariantBaseline Variant = "baseline" // native in-switch RCP (ns-2 stand-in)
	VariantAIMD     Variant = "aimd"     // loss-driven additive-increase/multiplicative-decrease
)

// Scheme is one congestion-control implementation as a Harness drives
// it.  There are exactly three: RCP*, native RCP, and aimd's.
type Scheme interface {
	// Install sets up switch-side state once, after L2 learning has
	// settled and before any pair is attached.
	Install(h *Harness)
	// Attach builds one pair's control loop — receiver side first, then
	// sender; same-tick timers fire in creation order — and returns the
	// flow's handle.
	Attach(h *Harness, pair int) Flow
	// FairShare is the rate in bytes/sec the network currently
	// advertises at the bottleneck: R(t) of Figure 2.  Zero for a
	// scheme that advertises none.
	FairShare() float64
}

// SchemeFor returns a fresh instance of one of this package's schemes.
func SchemeFor(v Variant) Scheme {
	switch v {
	case VariantStar:
		return &starScheme{}
	case VariantBaseline:
		return &baselineScheme{}
	}
	panic("rcp: no scheme for variant " + string(v))
}

// Flow is one attached sender/receiver pair as the harness sees it.
type Flow struct {
	// Port is the UDP destination port of the flow's data packets.
	Port uint16
	// Receive, when non-nil, is the scheme's receiver side; the harness
	// calls it for every data packet after counting the payload.  It
	// borrows the packet (the harness registers a Sink) and must not
	// keep it.
	Receive endhost.Handler
	// Start and Stop switch the sender (and its control loop) on and
	// off.
	Start, Stop func()
}

// FlowStart schedules pair Pair to start At after Launch.
type FlowStart struct {
	Pair int
	At   netsim.Time
}

// Staggered starts pair i at at[i], attaching pairs in index order.
func Staggered(at []netsim.Time) []FlowStart {
	starts := make([]FlowStart, len(at))
	for i, t := range at {
		starts[i] = FlowStart{Pair: i, At: t}
	}
	return starts
}

// The Figure 2 dumbbell: "a 10Mb/s bottleneck link" between 100 Mb/s
// edge links.
const (
	bottleneckMbps = 10
	edgeMbps       = 100
)

// Harness is the shared test bed of the §2.2 experiments: sender and
// receiver pairs across the Figure 2 dumbbell (1 ms edge links, a 10 ms
// bottleneck buffered for one bandwidth-delay product), a scheme
// driving each pair's rate, and the one per-flow count of delivered
// payload.  An experiment is a Harness plus whatever it samples between
// Launch and the end of the run.
type Harness struct {
	*topo.DumbbellNet
	Metrics *obs.Registry
	// Capacity is the bottleneck rate in bytes/sec.
	Capacity float64

	// Recv counts the payload bytes delivered to each pair's receiver.
	Recv []uint64
	// Flows holds each attached pair's handle.
	Flows []Flow
	// Observe, when non-nil, runs after each delivered data packet has
	// been counted (and fed to the scheme's receiver).
	Observe func(pair int)
}

// NewHarness builds the dumbbell; nothing runs until Launch, so callers
// can still register faults or loss on the bottleneck at time zero.
// The flow RTT scale d sizes the queues; metrics (may be nil) receives
// the switches' dataplane metrics and each RCP* controller's.
func NewHarness(pairs int, seed int64, metrics *obs.Registry) *Harness {
	capacity := bottleneckMbps * 1e6 / 8
	return &Harness{
		DumbbellNet: topo.Dumbbell(netsim.New(seed), pairs,
			topo.Mbps(edgeMbps, netsim.Millisecond),
			topo.Mbps(bottleneckMbps, 10*netsim.Millisecond),
			topo.Uniform(asic.Config{Ports: 8, QueueCapBytes: int(capacity * rttScale.Seconds()), Metrics: metrics}), nil),
		Metrics: metrics, Capacity: capacity,
		Recv: make([]uint64, pairs), Flows: make([]Flow, pairs),
	}
}

// Launch lets L2 learning settle, installs the scheme, then attaches
// and schedules the flows in the order given, and returns the time the
// run starts at.  Order is part of the contract: timers due on the same
// tick fire in creation order, which decides who enqueues first at the
// bottleneck.
func (h *Harness) Launch(s Scheme, starts []FlowStart) netsim.Time {
	h.PrimeL2(50 * netsim.Millisecond)
	s.Install(h)
	for _, st := range starts {
		pair := st.Pair
		f := s.Attach(h, pair)
		h.Flows[pair] = f
		// A sink: the count, the scheme's receiver and Observe read the
		// packet and return; none of them keeps it.
		h.Receivers[pair].Sink(f.Port, func(p *core.Packet) {
			h.Recv[pair] += uint64(p.PayloadLen())
			if f.Receive != nil {
				f.Receive(p)
			}
			if h.Observe != nil {
				h.Observe(pair)
			}
		})
		h.Sim.At(h.Sim.Now()+st.At, f.Start)
	}
	return h.Sim.Now()
}
