package main

import (
	"fmt"
	"strings"

	"repro/internal/asic"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// runConverge measures the fabric controller's convergence behavior
// under route churn racing switch crash-restarts: per-iteration attempt
// counts, ops applied, and how many rounds hit an epoch race or a dark
// (mid-boot) device before rolling forward.
func runConverge(out *output) error {
	sim := netsim.New(1)
	edge := topo.Mbps(20, 10*netsim.Microsecond)
	backbone := topo.Mbps(10, 10*netsim.Microsecond)
	ctl := fabric.New(sim)
	inj := faults.NewInjector(sim, nil)
	topo.LeafSpine(sim, 2, 2, 2, edge, backbone,
		topo.Uniform(asic.Config{Ports: 8}), nil).Register(ctl, inj)

	// Routes on every device plus a seeded service on leaf0, so a
	// reboot wipes state the controller must re-apply (TCAM survives a
	// crash; SRAM does not).
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{
		{
			Device:   "leaf0",
			Services: []fabric.Service{{Name: "rcp", Words: 8, Seed: []uint32{1250000}}},
			Routes: []fabric.Route{
				{DstIP: 0x0a000001, Priority: 100, OutPort: 2},
				{DstIP: 0x0a000002, Priority: 100, OutPort: 3},
			},
		},
		{Device: "leaf1", Routes: []fabric.Route{{DstIP: 0x0a000001, Priority: 10, OutPort: 0}}},
		{Device: "spine0", Routes: []fabric.Route{{DstIP: 0x0a000001, Priority: 10, OutPort: 0}}},
		{Device: "spine1", Routes: []fabric.Route{{DstIP: 0x0a000002, Priority: 10, OutPort: 0}}},
	}}

	env := &scenario.Env{
		Sim:        sim,
		Controller: ctl,
		Injector:   inj,
		Spec:       spec,
		Seed:       1,
		Churns: map[string]scenario.Hook{
			// Retarget every leaf0 route one port on: real churn the
			// controller must diff and apply each iteration.
			"shift": func(e *scenario.Env) error {
				for di, d := range e.Spec.Devices {
					if d.Device != "leaf0" {
						continue
					}
					for ri := range d.Routes {
						e.Spec.Devices[di].Routes[ri].OutPort =
							1 + e.Spec.Devices[di].Routes[ri].OutPort%7
					}
				}
				return nil
			},
		},
		Asserts: map[string]scenario.Hook{"verified": scenario.VerifySpec},
	}

	// Eight churn iterations retarget the leaf routes and reconverge
	// with a delayed apply, while leaf0 crash-restarts three times — so
	// some applies race a reboot, detect the epoch bump and roll forward
	// under the retry budget.
	var storm []faults.Event
	for _, us := range []netsim.Time{2500, 12500, 20500} {
		storm = append(storm, faults.Event{At: us * netsim.Microsecond,
			Kind: faults.SwitchReboot, Target: "leaf0", BootDelay: netsim.Millisecond})
	}
	res := scenario.Run(env, scenario.Scenario{Name: "converge-under-churn", Phases: []scenario.Phase{
		{Name: "provision", Kind: scenario.KindProvision, Budget: 6, Backoff: 4 * netsim.Millisecond},
		{Name: "storm", Kind: scenario.KindFaults, Needs: []string{"provision"}, Events: storm},
		{Name: "churn", Kind: scenario.KindChurn, Needs: []string{"storm"}, Hooks: []string{"shift"}, Repeat: 8,
			Budget: 6, Backoff: 4 * netsim.Millisecond, ApplyDelay: 2 * netsim.Millisecond},
		{Name: "check", Kind: scenario.KindAsserts, Needs: []string{"churn"}, Hooks: []string{"verified"}},
	}})

	out.printf("fabric convergence under churn: 8 route-churn iterations racing 3 leaf0 crash-restarts (scenario %q)\n\n", res.Name)
	tbl := trace.NewTable("converge", "attempts", "ops", "races", "converged")
	type row struct {
		phase             string
		iter              int
		c                 fabric.ConvergeResult
		races, darkRounds int
	}
	var rows []row
	for _, p := range res.Phases {
		for i, c := range p.Converges {
			r := row{phase: p.Name, iter: i, c: c}
			for _, rd := range c.Rounds {
				for _, de := range rd.Errors {
					switch de.Kind {
					case fabric.ErrEpochRaced:
						r.races++
					case fabric.ErrDeviceDark:
						r.darkRounds++
					}
				}
			}
			rows = append(rows, r)
			tbl.Row(fmt.Sprintf("%s[%d]", p.Name, i), c.Attempts, c.OpsApplied,
				fmt.Sprintf("%d raced / %d dark", r.races, r.darkRounds), c.Converged)
		}
	}
	out.printf("%s\n", tbl.String())

	totalRaces, totalDark := 0, 0
	for _, r := range rows {
		totalRaces += r.races
		totalDark += r.darkRounds
	}
	out.printf("epoch races detected: %d; applies against a dark (mid-boot) device: %d — every one rolled forward by re-diffing\n",
		totalRaces, totalDark)
	if !res.OK() {
		return fmt.Errorf("scenario not OK: aborted=%q failures=%v",
			res.Aborted, res.Failures())
	}
	if totalRaces+totalDark == 0 {
		return fmt.Errorf("no converge ever raced a reboot; the churn timeline no longer exercises the epoch guard")
	}

	c := out.csv("converge.csv", "converge", "attempts", "ops_applied", "epoch_races", "dark_applies", "converged")
	for _, r := range rows {
		c.Row(fmt.Sprintf("%s_%d", strings.ReplaceAll(r.phase, " ", "_"), r.iter),
			r.c.Attempts, r.c.OpsApplied, r.races, r.darkRounds, r.c.Converged)
	}
	return nil
}
