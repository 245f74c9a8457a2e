// Package scenario runs fabric scenarios: provision a spec through the
// fabric controller, schedule fault plans, start workloads, soak
// simulated time, assert invariants, and churn the spec under load —
// with phase dependency ordering and a repeat mode for stress runs.
//
// A scenario is a Go value.  The harness builds the topology, registers
// its hooks on an Env by name, and lists the phases; fault events,
// durations and addresses are the faults.Event / netsim.Time values the
// harness already holds:
//
//	sc := scenario.Scenario{Name: "converge-under-churn", Phases: []scenario.Phase{
//		{Name: "provision", Kind: scenario.KindProvision, Budget: 5},
//		{Name: "storm", Kind: scenario.KindFaults, Needs: []string{"provision"},
//			Events: []faults.Event{{At: 3 * netsim.Second, Kind: faults.SwitchReboot,
//				Target: "spine0", BootDelay: netsim.Millisecond}}},
//		{Name: "work", Kind: scenario.KindWorkloads, Needs: []string{"provision"},
//			Hooks: []string{"rcp", "accounting"}},
//		{Name: "soak", Kind: scenario.KindRun, Needs: []string{"work", "storm"},
//			Until: 7 * netsim.Second},
//		{Name: "check", Kind: scenario.KindAsserts, Needs: []string{"soak"},
//			Hooks: []string{"verified"}},
//		{Name: "reshuffle", Kind: scenario.KindChurn, Needs: []string{"check"},
//			Hooks: []string{"shift-routes"}, Repeat: 2},
//	}}
//	res := scenario.Run(env, sc)
//
// Run validates the whole value against the Env before the first phase
// executes (Validate), so an unknown kind, a dependency cycle or a
// mistyped hook name fails at t=0, not after the soak.  Parse is the
// text edge for scenarios kept in files: it decodes the same structure
// from a YAML document and returns the same value.
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// Kind names what a phase does.
type Kind string

// Phase kinds.
const (
	KindProvision Kind = "provision" // converge Env.Spec
	KindFaults    Kind = "faults"    // schedule Events on Env.Injector
	KindWorkloads Kind = "workloads" // start named workload hooks
	KindRun       Kind = "run"       // advance simulated time to Until
	KindAsserts   Kind = "asserts"   // run named assert hooks; failures collect
	KindChurn     Kind = "churn"     // mutate the spec via hooks, then reconverge
)

// hookNoun is how messages name one hook of the kind: "workload",
// "assert", "churn".
func (k Kind) hookNoun() string { return strings.TrimSuffix(string(k), "s") }

// Hook is a named harness callback: workloads start things, asserts
// check things, churns mutate Env.Spec.
type Hook func(*Env) error

// Env is the world a scenario runs in.  The harness builds topology and
// registers hooks; the scenario drives them.
type Env struct {
	Sim        *netsim.Sim
	Controller *fabric.Controller
	// Injector schedules faults phases; it may be nil for a scenario
	// that has none.
	Injector *faults.Injector
	// Spec is the desired fabric state; a scenario's Spec replaces it,
	// and churn hooks mutate it between converges.
	Spec fabric.Spec
	// Seed parameterizes fault plans ({Seed: Seed} in every scheduled
	// plan) so a scenario replays identically per seed.
	Seed int64

	Workloads map[string]Hook
	Asserts   map[string]Hook
	Churns    map[string]Hook
}

// hooks returns the registry a phase kind's hook names resolve in.
func (e *Env) hooks(k Kind) map[string]Hook {
	switch k {
	case KindWorkloads:
		return e.Workloads
	case KindAsserts:
		return e.Asserts
	case KindChurn:
		return e.Churns
	}
	return nil
}

// VerifySpec is the assert hook every harness ends on: the live fabric,
// re-read device by device, must equal Env.Spec field for field.
func VerifySpec(e *Env) error {
	if errs := e.Controller.Verify(e.Spec); len(errs) > 0 {
		return fmt.Errorf("%d devices off spec: %v", len(errs), errs)
	}
	return nil
}

// RoutingSpec lifts a fabric's destination routing — topo's neutral
// per-device routes — into the spec a controller converges.
func RoutingSpec(devs []topo.DeviceRoutes) fabric.Spec {
	var spec fabric.Spec
	for _, d := range devs {
		ds := fabric.DeviceSpec{Device: d.Name}
		for _, r := range d.Routes {
			ds.Routes = append(ds.Routes, fabric.Route{DstIP: r.DstIP, Priority: r.Priority, OutPort: r.OutPort})
		}
		spec.Devices = append(spec.Devices, ds)
	}
	return spec
}

// Phase is one scenario step.
type Phase struct {
	Name string
	Kind Kind
	// Needs names the phases that must run first.
	Needs []string
	// Repeat runs the phase body that many times (0 and 1: once).
	Repeat int

	// provision / churn: the converge's retry budget, and how long the
	// runner drives the simulation waiting for it (0: DefaultBound).
	Budget     int
	Backoff    netsim.Time
	ApplyDelay netsim.Time
	Bound      netsim.Time

	Events []faults.Event // faults
	Hooks  []string       // workloads / asserts / churn
	Until  netsim.Time    // run
}

// Scenario is a named phase list, optionally carrying the spec it
// provisions.
type Scenario struct {
	Name   string
	Spec   *fabric.Spec
	Phases []Phase
}

// PhaseError is a validation failure, attributed to the phase that
// carries it.
type PhaseError struct {
	Phase string
	Kind  Kind
	Msg   string
}

func (e *PhaseError) Error() string {
	return fmt.Sprintf("scenario: phase %q: %s", e.Phase, e.Msg)
}

// Validate checks every phase against what its kind requires and
// returns the scenario with its phases in execution order: each phase
// after every phase it needs, declaration order among the ready, so the
// schedule is deterministic.  Given the Env the scenario will run in,
// it also resolves every hook name and requires an injector for faults
// phases; env is nil when no Env exists yet (Parse).  The error is a
// *PhaseError.
func Validate(sc Scenario, env *Env) (Scenario, error) {
	index := make(map[string]int, len(sc.Phases))
	for i, p := range sc.Phases {
		if p.Name == "" {
			p.Name = fmt.Sprintf("#%d", i)
			return Scenario{}, phaseErr(p, "missing name")
		}
		if _, dup := index[p.Name]; dup {
			return Scenario{}, phaseErr(p, "duplicate phase name")
		}
		index[p.Name] = i
		if err := checkPhase(p, env); err != nil {
			return Scenario{}, err
		}
	}
	for _, p := range sc.Phases {
		for _, need := range p.Needs {
			if _, ok := index[need]; !ok {
				return Scenario{}, phaseErr(p, "needs unknown phase %q", need)
			}
		}
	}

	done := make([]bool, len(sc.Phases))
	ordered := make([]Phase, 0, len(sc.Phases))
	for len(ordered) < len(sc.Phases) {
		picked := -1
	scan:
		for i, p := range sc.Phases {
			if done[i] {
				continue
			}
			for _, need := range p.Needs {
				if !done[index[need]] {
					continue scan
				}
			}
			picked = i
			break
		}
		if picked < 0 {
			var stuck []string
			for i, p := range sc.Phases {
				if !done[i] {
					stuck = append(stuck, p.Name)
				}
			}
			return Scenario{}, phaseErr(sc.Phases[index[stuck[0]]],
				"dependency cycle among %s", strings.Join(stuck, ", "))
		}
		done[picked] = true
		ordered = append(ordered, sc.Phases[picked])
	}
	sc.Phases = ordered
	return sc, nil
}

// checkPhase holds the per-kind requirements.
func checkPhase(p Phase, env *Env) error {
	if p.Repeat < 0 {
		return phaseErr(p, "bad repeat %d", p.Repeat)
	}
	switch p.Kind {
	case KindProvision:
	case KindFaults:
		if len(p.Events) == 0 {
			return phaseErr(p, "faults phase has no events")
		}
		if env != nil && env.Injector == nil {
			return phaseErr(p, "faults phase needs an Env.Injector")
		}
	case KindWorkloads, KindAsserts, KindChurn:
		if len(p.Hooks) == 0 {
			return phaseErr(p, "%s phase has no hooks", p.Kind)
		}
		if env == nil {
			break
		}
		for _, name := range p.Hooks {
			if _, ok := env.hooks(p.Kind)[name]; !ok {
				return phaseErr(p, "unknown %s hook %q", p.Kind.hookNoun(), name)
			}
		}
	case KindRun:
		if p.Until <= 0 {
			return phaseErr(p, "run phase needs until")
		}
	default:
		return phaseErr(p, "unknown kind %q", p.Kind)
	}
	return nil
}

func phaseErr(p Phase, format string, args ...any) error {
	return &PhaseError{Phase: p.Name, Kind: p.Kind, Msg: fmt.Sprintf(format, args...)}
}
