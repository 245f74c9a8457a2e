// Package chaos composes every fault the simulator can inject — switch
// crash-restarts, bursty (Gilbert–Elliott) frame loss, silent TCAM
// blackholes and TCPU admission throttling — into one deterministic
// leaf-spine soak, and checks that the end-host mechanisms built on
// TPPs degrade and recover the way the paper argues they must: RCP*
// re-seeds wiped rate registers and re-converges, accounting flags
// counter discontinuities instead of reporting garbage deltas, the
// probe machinery retries through loss, and dataplane telemetry stays
// exactly reconciled with switch counters throughout.
//
// Every soak in this package runs as a typed fabric scenario: the
// harness builds the topology, declares the desired state as a
// fabric.Spec the controller converges (and verifies after the faults),
// lists the fault plan, workloads and checks as scenario.Phase values,
// and hands them to scenario.Run.  The scenario result rides in the
// crash and hostile soak Results so determinism covers the control
// plane too.  What the soaks have in common is written once (soak.go):
// the provision → faults/work → soak → check phase graph, the
// queue-conservation audit and the accounting writer/poller workload.
//
// Everything is seeded: the same Config produces the identical Result,
// which the soak test asserts by running every seed twice.
package chaos

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/topo"
)

// Config parameterizes the soak; Default is the canonical scenario.
type Config struct {
	Seed     int64
	Duration netsim.Time

	// RebootAt schedules crash-restarts of spine 0 (the RCP bottleneck
	// and the accounting counter's home switch).
	RebootAt  []netsim.Time
	BootDelay netsim.Time

	// Bursty loss window on the leaf0-spine1 fabric link.
	LossFrom, LossTo netsim.Time

	// Blackhole window on spine 1 for the throttle stream's target.
	HoleFrom, HoleTo netsim.Time

	// TPPRate/TPPBurst arm the admission gate on leaf 2 only, so the
	// probe streams transiting it get throttled while the RCP path
	// stays clean.
	TPPRate  float64
	TPPBurst int
}

// Default is the canonical chaos scenario: ~7 simulated seconds over a
// 3x2 leaf-spine fabric with two spine-0 crashes, a five-second bursty
// loss window, a half-second blackhole and a throttled edge switch.
func Default(seed int64) Config {
	return Config{
		Seed:      seed,
		Duration:  7 * netsim.Second,
		RebootAt:  []netsim.Time{3 * netsim.Second, 5 * netsim.Second},
		BootDelay: 50 * netsim.Millisecond,
		LossFrom:  1 * netsim.Second, LossTo: 6 * netsim.Second,
		HoleFrom: 2 * netsim.Second, HoleTo: 2500 * netsim.Millisecond,
		TPPRate: 100, TPPBurst: 4,
	}
}

// Result is the soak's observable outcome.  It contains only plain
// values so two runs with the same Config can be compared wholesale to
// prove determinism.
type Result struct {
	// Scenario is the control-plane outcome: the provision converge
	// that programmed the dst-routing spec, the fault plan, and the
	// end-of-soak verify that the routes survived the crashes.
	Scenario scenario.Result

	// Conservation audit over every queue of every switch:
	// EnqPkts == DeqPkts + FlushedPkts + Len() must hold (tail drops
	// never enter the queue), so Leaked (the sum of the differences)
	// must be zero — a reboot neither duplicates nor loses track of a
	// packet.
	Leaked int64

	// Reboot bookkeeping on spine 0.
	Reboots          uint64
	RebootDrops      uint64
	RebootSpans      int // StageSwitchReboot spans
	SwitchUpSpans    int // StageSwitchUp spans
	RebootDropSpans  int // StageRebootDrop spans from spine 0
	RebootsMetric    int64
	RebootDropMetric int64

	// RCP* recovery.
	EpochBumps  uint64
	Reinits     uint64
	RCPTimeouts uint64
	// RateSamples is LastRate sampled every 100ms (bytes/sec).
	RateSamples []float64
	// RateAfterReboot[i] is LastRate at RebootAt[i] + the recovery
	// window (30 control intervals).
	RateAfterReboot []float64

	// Accounting through the crashes.
	Polls           int
	NegativeDeltas  int
	Discontinuities uint64
	FinalTally      uint32

	// Throttling on leaf 2.
	Throttled       uint64 // switch counter
	ThrottleSpans   int    // StageThrottle spans from leaf 2
	ThrottleMetric  int64
	ThrottledEchoes int // stream echoes carrying FlagThrottled
	CleanEchoes     int // stream echoes executed end-to-end
	StreamTimeouts  uint64

	// Tracer health: reconciliation is only sound if nothing wrapped.
	SpansDropped uint64
}

// Run executes the scenario.
func Run(cfg Config) Result {
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// 3 leaves x 2 spines, two hosts per leaf.  Only the two switches
	// whose telemetry the soak reconciles (spine 0: reboots; leaf 2: the
	// admission gate) carry the tracer, and channels stay untraced: the
	// soak reconciles switch spans only.
	edge := topo.Mbps(20, 10*netsim.Microsecond)
	backbone := topo.Mbps(10, 10*netsim.Microsecond)
	net := topo.LeafSpine(sim, 3, 2, 2, edge, backbone, func(t topo.Tier, i int) asic.Config {
		c := asic.Config{Ports: 8, Metrics: reg}
		switch {
		case t == topo.Spine && i == 0:
			c.Trace = tracer
		case t == topo.Leaf && i == 2:
			c.Trace, c.TPPRate, c.TPPBurst = tracer, cfg.TPPRate, cfg.TPPBurst
		}
		return c
	}, nil)
	hosts, leaves, spines := net.LeafHosts, net.Leaves, net.Spines

	// Deterministic dst-routing (same scheme as the ndb hunt): host j
	// of any leaf is reached via spine j, so the fabric never depends
	// on learned L2 state a reboot would wipe.  The routes are a
	// declarative spec the controller converges, not hand inserts.
	spec := scenario.RoutingSpec(net.Routes(topo.HostSpine))
	rcp.InitRateRegisters(net.Switches...)

	// Fault plan: a bursty-loss window on leaf0-spine1, a silent
	// blackhole for the throttle stream's destination on spine 1, and
	// the spine-0 crashes.
	fab := fabric.New(sim)
	inj := faults.NewInjector(sim, tracer)
	net.Register(fab, inj)
	holeIP := hosts[2][1].IP
	events := []faults.Event{
		{At: cfg.LossFrom, Kind: faults.LinkBurstyLoss, Target: "leaf0-spine1",
			PGoodBad: 0.01, PBadGood: 0.1, LossGood: 0.005, LossBad: 0.5},
		{At: cfg.LossTo, Kind: faults.ClearLoss, Target: "leaf0-spine1"},
		{At: cfg.HoleFrom, Kind: faults.Blackhole, Target: "spine1", DstIP: holeIP},
		{At: cfg.HoleTo, Kind: faults.ClearBlackhole, Target: "spine1", DstIP: holeIP},
	}
	for _, at := range cfg.RebootAt {
		events = append(events, faults.Event{At: at, Kind: faults.SwitchReboot,
			Target: "spine0", BootDelay: cfg.BootDelay})
	}

	// Workload 1: one RCP* flow hosts[0][0] -> hosts[1][0], bottlenecked
	// on the fabric and riding spine 0 — squarely in the crash zone.
	ctlProber := endhost.NewProber(hosts[0][0])
	ctl := rcp.NewStarController(sim, hosts[0][0], ctlProber,
		hosts[1][0].MAC, hosts[1][0].IP)

	// Workload 2: a shared accounting tally in spine 0's SRAM, written
	// from leaf 0 and polled from leaf 1 straight through the crashes.
	acct := newTally(hosts[0][1], hosts[2][0], hosts[1][1], hosts[2][0],
		spines[0], mem.SRAMBase+16)

	// Workload 3: a collect-probe stream hosts[0][1] -> hosts[2][1]
	// that transits the bursty link, the blackholed destination AND the
	// throttled leaf — the compose-everything stream.
	streamProber := endhost.NewProber(hosts[0][1])
	streamCfg := endhost.ProbeConfig{
		Timeout: 50 * netsim.Millisecond, Retries: 1, Backoff: 2}
	streamProg, err := endhost.CollectProgram(
		[]mem.Addr{mem.SwitchBase + mem.SwitchID, mem.SwitchBase + mem.SwitchEpoch},
		4, 5)
	if err != nil {
		panic(err)
	}

	var res Result
	res.RateAfterReboot = make([]float64, len(cfg.RebootAt))

	env := &scenario.Env{
		Sim:        sim,
		Controller: fab,
		Injector:   inj,
		Spec:       spec,
		Seed:       cfg.Seed,
		Workloads: map[string]scenario.Hook{
			"rcp": func(*scenario.Env) error {
				ctl.Start()
				return nil
			},
			"accounting": func(*scenario.Env) error {
				acct.start(sim, 0)
				return nil
			},
			"stream": func(*scenario.Env) error {
				// One program and one callback for the whole stream: the
				// prober sends a copy of the program every tick.
				onEcho := func(e *core.TPP) {
					if e.Flags&core.FlagThrottled != 0 {
						res.ThrottledEchoes++
					} else {
						res.CleanEchoes++
					}
				}
				sim.Every(10*netsim.Millisecond, 5*netsim.Millisecond, func() {
					streamProber.ProbeCfg(hosts[2][1].MAC, hosts[2][1].IP, streamProg, streamCfg, onEcho, nil)
				})
				return nil
			},
			// Sampling: LastRate every 100ms, plus one checkpoint 30
			// control intervals after each reboot for the
			// bounded-recovery assertion.
			"sampling": func(*scenario.Env) error {
				sim.Every(100*netsim.Millisecond, 100*netsim.Millisecond, func() {
					res.RateSamples = append(res.RateSamples, ctl.LastRate)
				})
				for i, at := range cfg.RebootAt {
					i := i
					sim.At(at+30*rcp.ControlPeriod, func() { res.RateAfterReboot[i] = ctl.LastRate })
				}
				return nil
			},
		},
		// TCAM state survives a crash-restart; after two of them the
		// live fabric must still verify field-for-field against the
		// routing spec.
		Asserts: map[string]scenario.Hook{"routes-intact": scenario.VerifySpec},
	}

	res.Scenario = scenario.Run(env, scenario.Scenario{
		Name: "chaos-soak",
		Phases: soakPhases("storm", events,
			[]string{"rcp", "accounting", "stream", "sampling"}, cfg.Duration, "routes-intact"),
	})
	ctl.Stop()

	// Audit.
	res.Leaked = leaked(net.Switches...)
	res.Polls, res.NegativeDeltas = acct.Polls, acct.NegativeDeltas
	res.Reboots = spines[0].Reboots()
	res.RebootDrops = spines[0].RebootDrops()
	res.EpochBumps = ctl.EpochBumps
	res.Reinits = ctl.Reinits
	res.RCPTimeouts = ctl.Timeouts
	res.Discontinuities = acct.poller.Discontinuities()
	res.FinalTally = acct.Last
	res.Throttled = leaves[2].TPPsThrottled()
	res.StreamTimeouts = streamProber.TimedOut
	res.SpansDropped = tracer.Dropped()

	tracer.Each(func(ev *obs.SpanEvent) {
		switch {
		case ev.Stage == obs.StageSwitchReboot && ev.Node == spines[0].ID():
			res.RebootSpans++
		case ev.Stage == obs.StageSwitchUp && ev.Node == spines[0].ID():
			res.SwitchUpSpans++
		case ev.Stage == obs.StageRebootDrop && ev.Node == spines[0].ID():
			res.RebootDropSpans++
		case ev.Stage == obs.StageThrottle && ev.Node == leaves[2].ID():
			res.ThrottleSpans++
		}
	})
	snap := reg.Snapshot(int64(sim.Now()))
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/reboots", spines[0].ID())); ok {
		res.RebootsMetric = m.Value
	}
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/reboot_drops", spines[0].ID())); ok {
		res.RebootDropMetric = m.Value
	}
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/tpps_throttled", leaves[2].ID())); ok {
		res.ThrottleMetric = m.Value
	}
	return res
}
