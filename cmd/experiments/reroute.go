package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/reflex"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The reroute experiment kills a leaf-spine uplink mid-flows and
// measures how fast each repair mechanism restores delivery:
//
//   - reflex: the dataplane arm on the leaf watches its own round-trip
//     heartbeat evidence and CAS-rewrites the armed prefix onto the
//     pre-authorized backup spine — no controller in the loop.
//   - prober: the conventional path — an end-host prober notices the
//     echo timeout (which by construction cannot happen in less than an
//     end-to-end RTT) and the fabric controller then converges the
//     routes onto the backup spine.
//
// Fabric hops carry 500us of propagation so the end-to-end RTT is a
// measurable ~2ms: the point of the comparison is that the reflex
// detects and repairs in a fraction of one RTT, while any echo-timeout
// scheme needs multiple RTTs before it even suspects the failure.

const (
	rerouteStreamStart  = netsim.Millisecond
	rerouteStreamEnd    = 25 * netsim.Millisecond
	rerouteStreamPeriod = 20 * netsim.Microsecond
	rerouteKillAt       = 10 * netsim.Millisecond
	rerouteDrainUntil   = 30 * netsim.Millisecond
)

type rerouteRow struct {
	scheme   string
	rttUS    float64 // measured end-to-end probe RTT, pre-failure
	detectUS float64 // kill -> repair write (reflex fire / converge apply)
	stallUS  float64 // longest gap between arrivals at the sink
	sent     uint64
	lost     uint64
}

// runRerouteScheme runs one repair scheme on a fresh simulation and
// returns its measured row.
func runRerouteScheme(useReflex bool) (rerouteRow, error) {
	row := rerouteRow{scheme: "prober"}
	if useReflex {
		row.scheme = "reflex"
	}
	sim := netsim.New(1)
	edge := topo.Mbps(1000, 5*netsim.Microsecond)
	fab := topo.Mbps(1000, 500*netsim.Microsecond)
	net := topo.LeafSpine(sim, 2, 2, 2, edge, fab, nil, nil)
	leaf0 := net.Leaves[0]
	h00, h01 := net.LeafHosts[0][0], net.LeafHosts[0][1]
	h10, h11 := net.LeafHosts[1][0], net.LeafHosts[1][1]
	primary, backup := net.Uplink(0), net.Uplink(1)

	// Everything rides spine 0, in the controller's band.
	topo.InstallRoutes(net.Routes(topo.ViaSpine(0)), fabric.BandBase)

	// The repair mechanism under test.
	var arm *reflex.Arm
	repairAt := netsim.Time(0)
	if useReflex {
		var err error
		// DeadAfter must clear the steady-state heartbeat lag: the
		// monitor's round trip is ~1ms (two 500us fabric hops), i.e.
		// ~20 heartbeat periods always in flight.  26 leaves a margin
		// of ~6 periods, so detection costs ~300us after the echoes
		// stop.
		arm, err = reflex.Attach(sim, leaf0, reflex.Config{DeadAfter: 26})
		if err != nil {
			return row, err
		}
		if err := arm.Monitor(primary, h00.MAC, h00.IP); err != nil {
			return row, err
		}
		if err := arm.Monitor(backup, h00.MAC, h00.IP); err != nil {
			return row, err
		}
		if err := arm.Authorize("h10-via-spine1", h10.IP, primary, backup); err != nil {
			return row, err
		}
		if err := arm.Authorize("h11-via-spine1", h11.IP, primary, backup); err != nil {
			return row, err
		}
	}

	// Probers ride the h01 -> h11 pair so the measured h10 sink sees
	// stream packets only.  Both schemes measure the pre-failure RTT;
	// the prober scheme also uses echo timeouts as its failure
	// detector.
	prober := endhost.NewProber(h01)
	probeTPP := func() *core.TPP {
		return core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		}, 8)
	}
	var rttSent netsim.Time
	sim.At(3*netsim.Millisecond, func() {
		rttSent = sim.Now()
		prober.Probe(h11.MAC, h11.IP, probeTPP(), func(*core.TPP) {
			row.rttUS = float64(sim.Now()-rttSent) / float64(netsim.Microsecond)
		})
	})
	if !useReflex {
		// Conventional repair: fabric controller converges both
		// prefixes onto spine 1 once a probe deadline fires.  The
		// deadline must exceed one end-to-end RTT or healthy echoes
		// would be declared lost.
		ctrl := fabric.New(sim)
		net.Register(ctrl, nil)
		backupSpec := scenario.RoutingSpec(slices.DeleteFunc(net.Routes(topo.ViaSpine(1)),
			func(d topo.DeviceRoutes) bool { return d.Switch != leaf0 }))
		// Like any production liveness detector (BFD's multiplier, LACP
		// timeouts), the prober demands consecutive losses before it
		// declares the path dead: repairing on a single missing echo
		// would flap routes on every transient drop.
		const confirm = 3
		repaired, strikes := false, 0
		cfg := endhost.ProbeConfig{Timeout: 2500 * netsim.Microsecond}
		sim.Every(rerouteStreamStart, 500*netsim.Microsecond, func() {
			if sim.Now() > 20*netsim.Millisecond {
				return
			}
			prober.ProbeCfg(h11.MAC, h11.IP, probeTPP(), cfg,
				func(*core.TPP) { strikes = 0 },
				func() {
					strikes++
					if repaired || strikes < confirm {
						return
					}
					repaired = true
					ctrl.Converge(backupSpec, fabric.ConvergeConfig{}, func(fabric.ConvergeResult) {
						repairAt = sim.Now()
					})
				})
		})
	}

	// Workload: a steady h00 -> h10 stream across the uplink that dies.
	sim.Every(rerouteStreamStart, rerouteStreamPeriod, func() {
		if sim.Now() >= rerouteStreamEnd {
			return
		}
		row.sent++
		h00.Send(h00.NewPacket(h10.MAC, h10.IP, 4000, 4001, 200))
	})

	// Kill both directions of the primary uplink mid-flows.
	inj := faults.NewInjector(sim, nil)
	net.Register(nil, inj)
	if err := inj.Schedule(faults.Plan{Events: []faults.Event{
		{At: rerouteKillAt, Kind: faults.LinkDown, Target: "leaf0-spine0"},
	}}); err != nil {
		return row, err
	}

	// Arrival sampler: the longest inter-arrival gap at the sink after
	// the kill is the outage the scheme failed to hide.  5us sampling
	// bounds the measurement error well under one stream period.
	var lastArrival netsim.Time
	var lastSeen uint64
	var maxGap netsim.Time
	sim.Every(rerouteStreamStart, 5*netsim.Microsecond, func() {
		if h10.Received > lastSeen {
			if lastArrival > 0 && sim.Now() > rerouteKillAt {
				if gap := sim.Now() - lastArrival; gap > maxGap {
					maxGap = gap
				}
			}
			lastSeen = h10.Received
			lastArrival = sim.Now()
		}
		if useReflex && repairAt == 0 && arm.Fires() > 0 {
			repairAt = sim.Now()
		}
	})

	sim.RunUntil(rerouteDrainUntil)

	if repairAt == 0 {
		return row, fmt.Errorf("%s: repair never happened", row.scheme)
	}
	row.detectUS = float64(repairAt-rerouteKillAt) / float64(netsim.Microsecond)
	row.stallUS = float64(maxGap) / float64(netsim.Microsecond)
	row.lost = row.sent - h10.Received
	if row.rttUS == 0 {
		return row, fmt.Errorf("%s: RTT probe echo lost", row.scheme)
	}
	return row, nil
}

// runReroute compares reflex fast-reroute against prober-driven
// controller repair on the same uplink failure.
func runReroute(out *output) error {
	reflexRow, err := runRerouteScheme(true)
	if err != nil {
		return err
	}
	proberRow, err := runRerouteScheme(false)
	if err != nil {
		return err
	}
	rows := []rerouteRow{reflexRow, proberRow}

	out.printf("reflex fast-reroute vs prober-driven repair: leaf0-spine0 uplink killed at %v under a %v-period stream\n",
		rerouteKillAt, rerouteStreamPeriod)
	out.printf("(fabric hops carry 500us propagation; the measured end-to-end probe RTT is the floor any echo-timeout detector pays)\n\n")
	tbl := trace.NewTable("scheme", "rtt us", "detect us", "stall us", "sent", "lost")
	for _, r := range rows {
		tbl.Row(r.scheme, sprintf("%.0f", r.rttUS), sprintf("%.0f", r.detectUS),
			sprintf("%.0f", r.stallUS), r.sent, r.lost)
	}
	out.printf("%s\n", tbl.String())
	out.printf("reflex repaired %.0fus after the kill (%.2fx the e2e RTT) losing %d packets; the prober scheme needed %.0fus (%.2fx RTT) and lost %d\n",
		reflexRow.detectUS, reflexRow.detectUS/reflexRow.rttUS, reflexRow.lost,
		proberRow.detectUS, proberRow.detectUS/proberRow.rttUS, proberRow.lost)

	// The acceptance contract, measured: sub-RTT recovery, strictly
	// fewer losses than the timeout-driven baseline.
	if reflexRow.stallUS >= reflexRow.rttUS {
		return fmt.Errorf("reflex stall %.0fus is not sub-RTT (rtt %.0fus)",
			reflexRow.stallUS, reflexRow.rttUS)
	}
	if reflexRow.lost >= proberRow.lost {
		return fmt.Errorf("reflex lost %d >= prober repair's %d", reflexRow.lost, proberRow.lost)
	}

	c := out.csv("reroute.csv", "scheme", "rtt_us", "detect_us", "stall_us", "sent", "lost")
	for _, r := range rows {
		c.Row(r.scheme, r.rttUS, r.detectUS, r.stallUS, r.sent, r.lost)
	}
	return nil
}
