package chaos

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/reflex"
	"repro/internal/topo"
)

// ReflexSoakConfig parameterizes the reflex fast-reroute soak: a
// leaf-spine fabric whose primary uplink gray-flaps repeatedly (in
// seeded directions and with seeded jitter) while the home leaf
// crash-restarts mid-detour, racing the reflex arm's evidence and TCAM
// writes against the reboot wipe.  DefaultReflexSoak is the canonical
// scenario.
type ReflexSoakConfig struct {
	Seed int64
}

// The reflex soak runs reflexSoakDuration.  reflexFlaps gray down/up
// cycles hit the leaf0-spine0 link; each flap's direction (leaf→spine
// vs spine→leaf) and exact timing derive from the seed, so different
// seeds exercise different failure surfaces — including the gray case
// where the stream is untouched and only the heartbeat round trip dies.
// Leaf 0 (the reflex arm's home switch) crash-restarts at
// reflexRebootAt, while a detour is standing — the third flap darkens
// the uplink at >= 24ms (see flapPlan) — and stays dark for
// reflexBootDelay.
const (
	reflexSoakDuration = 40 * netsim.Millisecond
	reflexFlaps        = 3
	reflexRebootAt     = 25 * netsim.Millisecond
	reflexBootDelay    = 200 * netsim.Microsecond
)

// DefaultReflexSoak is the canonical reflex soak: 40 simulated
// milliseconds, three seeded gray flaps on the primary uplink, and a
// leaf-0 crash-restart inside the third flap's down window.
func DefaultReflexSoak(seed int64) ReflexSoakConfig {
	return ReflexSoakConfig{Seed: seed}
}

// ReflexSoakResult is the soak's observable outcome, plain values only
// so two runs with the same config compare wholesale.
type ReflexSoakResult struct {
	// Reflex arm counters at end of run.
	Fires, Reverts, StaleWrites, Probes uint64

	// Stream accounting: packets the sender handed to the fabric and
	// packets the far host received.  The difference is the loss the
	// flaps and the reboot cost despite the reflex.
	Sent, Delivered uint64

	// Loop evidence: a reflex detour that formed a forwarding loop
	// would burn TTLs; both counters must stay zero.
	TTLDrops, Blackholes uint64

	// Conservation audit over every queue of every switch (see
	// Result.Leaked).
	Leaked int64

	// Reboot bookkeeping on leaf 0.
	Reboots     uint64
	RebootDrops uint64

	// Trajectory samples one word per millisecond:
	// fires<<40 | reverts<<20 | active detours.  Run-vs-run equality
	// of the whole slice pins the timing of every fire and revert, not
	// just the totals.
	Trajectory []uint64

	// End state: the armed entry's live out port, whether the arm
	// ended detoured or stale, and the closing fabric reconciliation —
	// Ratified counts detours folded into spec before the final
	// converge (zero when the reflex already reverted).
	FinalOutPort int
	EndDetoured  bool
	EndStale     bool
	Ratified     int
	Converged    bool
}

// flapPlan derives the seeded gray-flap schedule: flap i darkens one
// seeded direction of the leaf0-spine0 link at 4ms + i*10ms plus
// jitter, for 2ms plus jitter.  The jitter source is a local LCG over
// Seed — never the simulator's shared rng — so the plan is a pure
// function of the seed.
func flapPlan(seed int64) []faults.Event {
	r := uint64(seed)
	next := func(n uint64) uint64 {
		r = r*6364136223846793005 + 1442695040888963407
		return (r >> 33) % n
	}
	var evs []faults.Event
	for i := 0; i < reflexFlaps; i++ {
		down := 4*netsim.Millisecond + netsim.Time(i)*10*netsim.Millisecond +
			netsim.Time(next(1000))*netsim.Microsecond
		up := down + 2*netsim.Millisecond + netsim.Time(next(2000))*netsim.Microsecond
		dir := int(next(2))
		evs = append(evs,
			faults.Event{At: down, Kind: faults.LinkGrayDown, Target: "leaf0-spine0", Dir: dir},
			faults.Event{At: up, Kind: faults.LinkGrayUp, Target: "leaf0-spine0", Dir: dir},
		)
	}
	return evs
}

// RunReflexSoak executes the reflex fast-reroute soak.
func RunReflexSoak(cfg ReflexSoakConfig) ReflexSoakResult {
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 16)

	edge := topo.Mbps(1000, 5*netsim.Microsecond)
	fab := topo.Mbps(1000, 10*netsim.Microsecond)
	net := topo.LeafSpine(sim, 2, 2, 2, edge, fab,
		topo.Uniform(asic.Config{Metrics: reg, Trace: tracer}), tracer)
	leaf0 := net.Leaves[0]
	h00, h10 := net.LeafHosts[0][0], net.LeafHosts[1][0]

	// Exact-match dst routes in the controller band on all four
	// switches, everything riding spine 0.
	spec := scenario.RoutingSpec(net.Routes(topo.ViaSpine(0)))
	ctrl := fabric.New(sim)
	inj := faults.NewInjector(sim, tracer)
	net.Register(ctrl, inj)

	// The reflex arm on leaf 0; the "arm" phase monitors both uplinks
	// through the h00 reflector and arms h10's prefix onto spine 1 once
	// the routes it captures are provisioned.
	arm, err := reflex.Attach(sim, leaf0, reflex.Config{
		Metrics: reg, Trace: tracer,
	})
	if err != nil {
		panic(fmt.Sprintf("chaos: reflex attach: %v", err))
	}
	ctrl.RegisterDetours("leaf0", arm)
	const armed = "h10-via-spine1"

	// Fault plan: seeded gray flaps on the primary uplink plus one
	// leaf-0 crash-restart racing the standing detour.
	events := append(flapPlan(cfg.Seed), faults.Event{
		At: reflexRebootAt, Kind: faults.SwitchReboot,
		Target: "leaf0", BootDelay: reflexBootDelay,
	})

	res := ReflexSoakResult{}
	env := &scenario.Env{
		Sim:        sim,
		Controller: ctrl,
		Injector:   inj,
		Spec:       spec,
		Seed:       cfg.Seed,
		Workloads: map[string]scenario.Hook{
			"reflex": func(*scenario.Env) error {
				for spine := range net.Spines {
					if err := arm.Monitor(net.Uplink(spine), h00.MAC, h00.IP); err != nil {
						return err
					}
				}
				return arm.Authorize(armed, h10.IP, net.Uplink(0), net.Uplink(1))
			},
			// A steady h00 → h10 stream across the armed prefix, and one
			// packed trajectory word per millisecond.
			"stream": func(*scenario.Env) error {
				sim.Every(100*netsim.Microsecond, 50*netsim.Microsecond, func() {
					res.Sent++
					h00.Send(h00.NewPacket(h10.MAC, h10.IP, 4000, 4001, 200))
				})
				sim.Every(netsim.Millisecond, netsim.Millisecond, func() {
					res.Trajectory = append(res.Trajectory,
						arm.Fires()<<40|arm.Reverts()<<20|uint64(len(arm.ActiveDetours())))
				})
				return nil
			},
		},
		Churns: map[string]scenario.Hook{
			// Closing reconciliation: ratify any standing detour into the
			// spec (promoting the arm so it stops trying to revert a
			// routing the operator just blessed); the phase's converge
			// must then end clean either way.  A stale arm's rewrite is
			// ordinary drift here: the converge restores the spec's
			// primary.
			"ratify": func(e *scenario.Env) error {
				res.EndDetoured = arm.Detoured(armed)
				res.EndStale = arm.Stale(armed)
				e.Spec, res.Ratified = e.Controller.Ratify(e.Spec)
				if res.Ratified > 0 {
					return arm.Promote(armed)
				}
				return nil
			},
		},
	}
	const settle = 10 * netsim.Millisecond
	sres := scenario.Run(env, scenario.Scenario{Name: "reflex-soak", Phases: []scenario.Phase{
		{Name: "provision", Kind: scenario.KindProvision},
		{Name: "arm", Kind: scenario.KindWorkloads, Needs: []string{"provision"}, Hooks: []string{"reflex"}},
		{Name: "flaps", Kind: scenario.KindFaults, Needs: []string{"arm"}, Events: events},
		{Name: "work", Kind: scenario.KindWorkloads, Needs: []string{"flaps"}, Hooks: []string{"stream"}},
		{Name: "soak", Kind: scenario.KindRun, Needs: []string{"work"}, Until: reflexSoakDuration},
		{Name: "reconcile", Kind: scenario.KindChurn, Needs: []string{"soak"}, Hooks: []string{"ratify"}, Bound: settle},
		{Name: "settle", Kind: scenario.KindRun, Needs: []string{"reconcile"}, Until: reflexSoakDuration + settle},
	}})
	if sres.Aborted != "" {
		panic(fmt.Sprintf("chaos: reflex soak aborted at %q: %+v", sres.Aborted, sres.Phases[len(sres.Phases)-1]))
	}
	res.Converged = sres.Converged()

	// Audit.
	res.Fires = arm.Fires()
	res.Reverts = arm.Reverts()
	res.StaleWrites = arm.StaleWrites()
	res.Probes = arm.ProbesSent()
	res.Delivered = h10.Received
	if id, ok := arm.EntryOf(armed); ok {
		if e, live := leaf0.TCAM().Get(id); live {
			res.FinalOutPort = e.Action.OutPort
		}
	}
	for _, sw := range net.Switches {
		res.TTLDrops += sw.TTLDrops()
		res.Blackholes += sw.Blackholes()
	}
	res.Leaked = leaked(net.Switches...)
	res.Reboots = leaf0.Reboots()
	res.RebootDrops = leaf0.RebootDrops()
	return res
}
