package inband

import (
	"fmt"
	"strconv"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/verify"
)

// histTenant is the tenant the RTT-histogram workload runs as: its
// writer and collector NICs seal this identity and verify against the
// tenant's grant, so every TPP the workload emits is provably
// admissible before it enters the fabric.
const histTenant guard.TenantID = 7

// HistConfig parameterizes the RTT-histogram scenario.
type HistConfig struct {
	Seed int64

	// RebootAt crash-restarts the histogram's home switch; zero
	// disables the crash.
	RebootAt netsim.Time
}

// The RTT-histogram scenario runs HistDuration over a two-leaf,
// one-spine fabric; a crashed spine boots in HistBootDelay.  The
// writer-side fabric link is bursty-lossy from HistLossFrom to
// HistLossTo, exercising probe retransmission and CSTORE duplicate
// detection.
const (
	HistDuration  = 2 * netsim.Second
	HistBootDelay = 10 * netsim.Millisecond
	HistLossFrom  = 300 * netsim.Millisecond
	HistLossTo    = 500 * netsim.Millisecond

	// RTT sampling: one probe every histSampleEvery from
	// histSampleFrom until histSampleUntil, leaving the tail of the
	// run for the writer to drain and the collector to observe the
	// settled window.
	histSampleFrom  = 20 * netsim.Millisecond
	histSampleEvery = 5 * netsim.Millisecond
	histSampleUntil = 1200 * netsim.Millisecond

	// histSweepEvery paces the collector (first sweep after one
	// period).
	histSweepEvery = 100 * netsim.Millisecond
)

// DefaultHist is the canonical scenario: RTT sampled every 5ms for
// 1.2s with bursty cross traffic varying queueing delay; a 200ms
// bursty-loss window on the writer's fabric link; one spine
// crash-restart at 600ms.
func DefaultHist(seed int64) HistConfig {
	return HistConfig{
		Seed:     seed,
		RebootAt: 600 * netsim.Millisecond,
	}
}

// HistResult is the scenario's observable outcome: plain values only,
// so two runs with the same config compare wholesale for determinism.
// The per-bucket arrays share obs bucket indexing (bucket i counts
// samples in [obs.BucketLow(i), obs.BucketHigh(i)]).
type HistResult struct {
	// Ground truth (host-measured RTT samples) vs the dataplane.
	Samples    uint64
	Truth      [obs.NumBuckets]uint64 // host-side histogram
	FinalSRAM  [obs.NumBuckets]uint64 // switch window read directly at the end
	Current    [obs.NumBuckets]uint64 // collector's current-epoch view
	Cumulative [obs.NumBuckets]uint64 // collector's across-wipes accumulation
	// CapturedAtWipe is the window read just before the crash wiped it:
	// the commits whose SRAM evidence the reboot destroyed.
	CapturedAtWipe [obs.NumBuckets]uint64

	TruthTotal, CurrentTotal, CumulativeTotal, CapturedTotal uint64

	// CSTORE reconciliation: switch counter == metric == span count,
	// and CurrentTotal + CapturedTotal == SwitchCommits.
	SwitchCommits uint64
	CommitMetric  int64
	CommitSpans   int

	// Sweep reconciliation: collector count == metric == span count,
	// and the folded metric equals the cumulative total.
	Sweeps           uint64
	SweepsMetric     int64
	SweepSpans       int
	FoldedMetric     int64
	SweepFolded      []uint64 // per-sweep folded counts, in order
	Discontinuities  uint64
	IncompleteChunks uint64

	// Writer protocol counters.
	Applied, Duplicates, Adopted, Inconclusive uint64
	Rebases, WriterFailures                    uint64
	AppliedMetric                              int64
	Retransmits                                uint64
	Drained                                    bool
	Pending                                    uint64

	// Environment health: the guard denied nothing (the workload is
	// verified against its own grant), the NICs rejected nothing, the
	// tracer wrapped nothing.
	Reboots      uint64
	Denied       uint64
	NICRejected  uint64
	SpansDropped uint64
}

// RunHist executes the RTT-histogram scenario: end-host TPPs
// CSTORE-bucket measured RTTs into the spine's SRAM, a collector
// sweeps the window, and one crash-restart in the middle proves the
// accounting is exact across the wipe.
func RunHist(cfg HistConfig) HistResult {
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// Two leaves, one spine; the spine is the histogram's home switch
	// and the only traced one (switch spans only; channels stay
	// untraced), so span reconciliation is exact.
	fabric := topo.Mbps(10, 10*netsim.Microsecond)
	edge := topo.Mbps(20, 10*netsim.Microsecond)
	net := topo.LeafSpine(sim, 2, 1, 0, edge, fabric, func(t topo.Tier, _ int) asic.Config {
		if t == topo.Spine {
			return asic.Config{Ports: 8, Metrics: reg, Trace: tracer, Guard: true}
		}
		return asic.Config{Ports: 8, Metrics: reg}
	}, nil)
	spine := net.Spines[0]
	writerHost := net.AddLeafHost(0) // measures RTTs, drives the window
	collHost := net.AddLeafHost(0)   // sweeps the window
	bgHost := net.AddLeafHost(0)     // bursty cross traffic varying queue delay
	targetHost := net.AddLeafHost(1) // probes transit the spine to reach it
	sinkHost := net.AddLeafHost(1)   // cross-traffic sink

	// Deterministic dst-routing, so forwarding never depends on learned
	// L2 state a crash would wipe.
	topo.InstallRoutes(net.Routes(topo.ViaSpine(0)), 0)

	// The workload's tenant grant on the home switch; grants are
	// config and survive the crash, the partition's contents do not.
	grant, err := spine.GrantTenant(histTenant, guard.DefaultACL(), 2*obs.NumBuckets, 1, 8)
	if err != nil {
		panic(fmt.Sprintf("inband: GrantTenant: %v", err))
	}
	// The window is tenant-relative bucket 0..NumBuckets-1: the guard
	// relocates SRAMBase+i into the partition.
	spec := HistSpec{SwitchID: spine.ID(), Base: mem.SRAMBase, Buckets: obs.NumBuckets}
	seal := func(h *endhost.Host) {
		h.NIC.SetTenant(uint8(histTenant))
		h.NIC.SetVerifier(&verify.Config{Grant: &grant})
	}
	seal(writerHost)
	seal(collHost)

	// Every probe attempt in the scenario is bounded the same way.
	probe := endhost.ProbeConfig{Timeout: 25 * netsim.Millisecond, Retries: 3}
	writerProber := endhost.NewProber(writerHost)
	writerProber.SetDefaults(probe)
	writer := NewHistWriter(WriterConfig{
		Prober: writerProber, DstMAC: targetHost.MAC, DstIP: targetHost.IP,
		Spec: spec, Metrics: reg,
	})

	collProber := endhost.NewProber(collHost)
	collProber.SetDefaults(probe)
	coll := NewCollector(CollectorConfig{
		Prober: collProber, DstMAC: targetHost.MAC, DstIP: targetHost.IP,
		Spec: spec, Metrics: reg, Tracer: tracer,
		Now: func() int64 { return int64(sim.Now()) },
	})
	sim.Every(histSweepEvery, histSweepEvery, func() { coll.Sweep() })

	// RTT sampling: a 1-instruction probe measures the round trip on
	// the host clock; the sample goes to both the host-side truth
	// histogram and the dataplane writer.
	truth := obs.NewHistogram()
	measure := func() *core.TPP {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		}, 1)
		tpp.SetWord(0, 0)
		return tpp
	}
	sim.Every(histSampleFrom, histSampleEvery, func() {
		if sim.Now() > histSampleUntil {
			return
		}
		t0 := sim.Now()
		writerProber.Probe(targetHost.MAC, targetHost.IP, measure(), func(*core.TPP) {
			rtt := uint64(sim.Now() - t0)
			truth.Observe(rtt)
			writer.Observe(rtt)
		})
	})

	// Bursty cross traffic through the spine, so sampled RTTs spread
	// across several power-of-two buckets.
	tick := 0
	sim.Every(20*netsim.Millisecond, 10*netsim.Millisecond, func() {
		if sim.Now() > histSampleUntil {
			return
		}
		tick++
		for i := 0; i < (tick*7)%13; i++ {
			bgHost.Send(bgHost.NewPacket(sinkHost.MAC, sinkHost.IP, 9000, 9001, 400))
		}
	})

	// Fault plan: a bursty-loss window on the writer's fabric link and
	// one spine crash.
	inj := faults.NewInjector(sim, tracer)
	net.Register(nil, inj)
	events := []faults.Event{
		{At: HistLossFrom, Kind: faults.LinkBurstyLoss, Target: "leaf0-spine0",
			PGoodBad: 0.01, PBadGood: 0.1, LossGood: 0.005, LossBad: 0.5},
		{At: HistLossTo, Kind: faults.ClearLoss, Target: "leaf0-spine0"},
	}
	if cfg.RebootAt > 0 {
		events = append(events, faults.Event{At: cfg.RebootAt, Kind: faults.SwitchReboot,
			Target: "spine0", BootDelay: HistBootDelay})
	}
	if err := inj.Schedule(faults.Plan{Seed: cfg.Seed, Events: events}); err != nil {
		panic(fmt.Sprintf("inband: bad fault plan: %v", err))
	}

	var res HistResult
	physBase := grant.Partition.Base
	readWindow := func(dst *[obs.NumBuckets]uint64) {
		for i := 0; i < obs.NumBuckets; i++ {
			dst[i] = uint64(spine.SRAM(mem.SRAMIndex(physBase + mem.Addr(i))))
		}
	}
	if cfg.RebootAt > 0 {
		// Capture W(τ⁻), the window the instant before the crash: the
		// injector's reboot event was scheduled at setup, so at
		// RebootAt it sorts before every packet event and no commit can
		// slip between this capture and the wipe.
		sim.RunUntil(cfg.RebootAt - 1)
		readWindow(&res.CapturedAtWipe)
	}
	sim.RunUntil(HistDuration)

	// Harvest.
	readWindow(&res.FinalSRAM)
	res.Samples = writer.Samples
	for i := 0; i < obs.NumBuckets; i++ {
		res.Truth[i] = truth.Bucket(i)
		res.Current[i] = uint64(coll.CurrentBucket(i))
		res.Cumulative[i] = coll.CumulativeBucket(i)
		res.TruthTotal += res.Truth[i]
		res.CurrentTotal += res.Current[i]
		res.CumulativeTotal += res.Cumulative[i]
		res.CapturedTotal += res.CapturedAtWipe[i]
	}
	res.SwitchCommits = spine.CStoreCommits()
	res.Sweeps = coll.Sweeps()
	for _, p := range coll.Series {
		res.SweepFolded = append(res.SweepFolded, p.Folded)
	}
	res.Discontinuities = coll.Discontinuities()
	res.IncompleteChunks = coll.Incomplete
	res.Applied = writer.Applied
	res.Duplicates = writer.Duplicates
	res.Adopted = writer.Adopted
	res.Inconclusive = writer.Inconclusive
	res.Rebases = writer.Rebases()
	res.WriterFailures = writer.Failures
	res.Retransmits = writerProber.Retransmits + collProber.Retransmits
	res.Drained = writer.Drained()
	res.Pending = writer.PendingSamples()
	res.Reboots = spine.Reboots()
	res.Denied = spine.TPPsDenied()
	res.NICRejected = writerHost.NIC.Rejected + collHost.NIC.Rejected
	res.SpansDropped = tracer.Dropped()

	tracer.Each(func(ev *obs.SpanEvent) {
		switch {
		case ev.Stage == obs.StageCStore && ev.Node == spine.ID():
			res.CommitSpans++
		case ev.Stage == obs.StageSweep && ev.Node == spine.ID():
			res.SweepSpans++
		}
	})
	snap := reg.Snapshot(int64(sim.Now()))
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/cstore_commits", spine.ID())); ok {
		res.CommitMetric = m.Value
	}
	if m, ok := snap.Get("inband/collector/sweeps"); ok {
		res.SweepsMetric = m.Value
	}
	if m, ok := snap.Get("inband/collector/folded"); ok {
		res.FoldedMetric = m.Value
	}
	if m, ok := snap.Get("inband/writer/applied"); ok {
		res.AppliedMetric = m.Value
	}
	return res
}

// The spin-bit scenario runs SpinDuration, and sweeps the observer's
// window every 50ms from 1.5s on: after the flow quiesces, so sweep
// probes never queue behind flow packets and perturb the intervals
// being measured.
const (
	SpinDuration   = 2 * netsim.Second
	spinSweepFrom  = 1500 * netsim.Millisecond
	spinSweepEvery = 50 * netsim.Millisecond
)

// SpinResult is the spin scenario's observable outcome.
type SpinResult struct {
	Flips      uint64
	Truth      [obs.NumBuckets]uint64 // client-measured flip intervals
	SRAM       [obs.NumBuckets]uint64 // observer's window, read directly
	Current    [obs.NumBuckets]uint64 // collector's swept view
	Cumulative [obs.NumBuckets]uint64

	TruthTotal uint64

	// Observer reconciliation: switch accessors == metrics == spans.
	Edges         uint64
	Samples       uint64
	EdgesMetric   int64
	SamplesMetric int64
	EdgeSpans     int

	Sweeps          uint64
	SweepSpans      int
	Discontinuities uint64
	SpansDropped    uint64
}

// RunSpin executes the spin-bit scenario: a ping-pong flow drives the
// spin bit across a 3-switch line, the middle switch passively infers
// every RTT interval from bit transitions alone, and a collector
// sweeps the resulting SRAM histogram after the flow quiesces.  Under
// constant per-hop delay (no loss, no competing traffic, equal-size
// packets) the observer's intervals equal the client's exactly, so the
// dataplane histogram matches ground truth bucket-for-bucket.  The
// flow draws nothing at random, so there is no seed to choose: the Sim
// is seeded with 1.
func RunSpin() SpinResult {
	sim := netsim.New(1)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// A 3-switch line, observer in the middle; only the observer carries
	// the tracer, and channels stay untraced.
	backbone := topo.Mbps(100, 10*netsim.Microsecond)
	edge := topo.Mbps(100, 10*netsim.Microsecond)
	n, client, server, sws := topo.Line(sim, 3, edge, backbone, func(_ topo.Tier, i int) asic.Config {
		c := asic.Config{Ports: 4, Metrics: reg}
		if i == 1 {
			c.Trace = tracer
		}
		return c
	}, nil)
	mid := sws[1]

	// The observer's window is a service the fabric controller
	// provisions on every switch of the line, like any other network
	// task's SRAM; Verify holds it to one base on all three.  A clean
	// first converge finishes before the call returns, so a bound of
	// zero simulated time is enough.
	ctl := fabric.New(sim)
	spec := fabric.Spec{Devices: make([]fabric.DeviceSpec, len(sws))}
	for i, sw := range sws {
		name := "s" + strconv.Itoa(i)
		ctl.Register(name, sw)
		spec.Devices[i] = fabric.DeviceSpec{Device: name,
			Services: []fabric.Service{{Name: "inband/spin", Words: obs.NumBuckets}}}
	}
	if res, _ := ctl.ConvergeWithin(spec, fabric.ConvergeConfig{}, 0); !res.Converged {
		panic(fmt.Sprintf("inband: provisioning the spin window: %+v", res.Pending))
	}
	st, _ := ctl.ReadState("s1")
	window := st.Services[0].Region.Base
	mid.WatchSpin(client.IP, server.IP, window)

	n.PrimeL2(5 * netsim.Millisecond)

	flow := NewSpinFlow(SpinFlowConfig{Client: client, Server: server})
	flow.Start()

	collProber := endhost.NewProber(client)
	collProber.SetDefaults(endhost.ProbeConfig{
		Timeout: 25 * netsim.Millisecond, Retries: 2})
	coll := NewCollector(CollectorConfig{
		Prober: collProber, DstMAC: server.MAC, DstIP: server.IP,
		Spec:    HistSpec{SwitchID: mid.ID(), Base: window, Buckets: obs.NumBuckets},
		Metrics: reg, Tracer: tracer, Name: "spincollector",
		Now: func() int64 { return int64(sim.Now()) },
	})
	sim.Every(spinSweepFrom, spinSweepEvery, func() { coll.Sweep() })

	sim.RunUntil(SpinDuration)

	var res SpinResult
	res.Flips = flow.Flips
	for i := 0; i < obs.NumBuckets; i++ {
		res.Truth[i] = flow.Truth.Bucket(i)
		res.SRAM[i] = uint64(mid.SRAM(mem.SRAMIndex(window + mem.Addr(i))))
		res.Current[i] = uint64(coll.CurrentBucket(i))
		res.Cumulative[i] = coll.CumulativeBucket(i)
		res.TruthTotal += res.Truth[i]
	}
	res.Edges = mid.SpinEdges(client.IP, server.IP)
	res.Samples = mid.SpinSamples(client.IP, server.IP)
	res.Sweeps = coll.Sweeps()
	res.Discontinuities = coll.Discontinuities()
	res.SpansDropped = tracer.Dropped()
	tracer.Each(func(ev *obs.SpanEvent) {
		switch {
		case ev.Stage == obs.StageSpinEdge && ev.Node == mid.ID():
			res.EdgeSpans++
		case ev.Stage == obs.StageSweep && ev.Node == mid.ID():
			res.SweepSpans++
		}
	})
	snap := reg.Snapshot(int64(sim.Now()))
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/spin_edges", mid.ID())); ok {
		res.EdgesMetric = m.Value
	}
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/spin_samples", mid.ID())); ok {
		res.SamplesMetric = m.Value
	}
	return res
}
