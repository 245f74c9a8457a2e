package scenario

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// DefaultBound caps how long a converge phase may drive the simulation
// before the runner gives up waiting.
const DefaultBound = netsim.Second

// PhaseResult is one phase's outcome.
type PhaseResult struct {
	Name string
	Kind Kind
	// Start and End are the simulated times the phase ran across.
	Start, End netsim.Time
	// Iterations is how many times the phase body ran (repeat mode).
	Iterations int
	// Converges holds one result per converge the phase ran
	// (provision/churn kinds).
	Converges []fabric.ConvergeResult
	// Failures are assert-hook failures; they collect, they never
	// abort the scenario.
	Failures []string
	// Err is a hard error (a validation failure, a failing workload or
	// churn hook, an unschedulable fault plan, a converge that never
	// finished); it aborts the remaining phases.
	Err string
}

// Result is a full scenario run.  It is plain values throughout so
// soak tests can reflect.DeepEqual two runs.
type Result struct {
	Name   string
	Phases []PhaseResult
	// Aborted names the phase whose hard error stopped the run, empty
	// when every phase ran.
	Aborted string
}

// Failures collects every assert failure across phases.
func (r Result) Failures() []string {
	var out []string
	for _, p := range r.Phases {
		out = append(out, p.Failures...)
	}
	return out
}

// Converged reports whether every converge in the run reached spec.
func (r Result) Converged() bool {
	for _, p := range r.Phases {
		for _, c := range p.Converges {
			if !c.Converged {
				return false
			}
		}
	}
	return true
}

// OK reports a fully clean run: no hard errors, no assert failures,
// every converge converged.
func (r Result) OK() bool {
	if r.Aborted != "" {
		return false
	}
	for _, p := range r.Phases {
		if p.Err != "" || len(p.Failures) > 0 {
			return false
		}
	}
	return r.Converged()
}

// Run validates the scenario against env (Validate) and executes its
// phases in dependency order.  A validation failure is reported before
// any phase runs, as the hard error of the phase that carries it.  A
// phase's hard error aborts the remaining phases (the partial result
// still reports everything that ran); assert failures and unconverged
// converges are recorded and the run continues — graceful degradation,
// never a silent drop.
func Run(env *Env, sc Scenario) Result {
	res := Result{Name: sc.Name}
	sc, err := Validate(sc, env)
	if err != nil {
		pe := err.(*PhaseError)
		now := env.Sim.Now()
		res.Phases = []PhaseResult{{Name: pe.Phase, Kind: pe.Kind, Start: now, End: now, Err: pe.Msg}}
		res.Aborted = pe.Phase
		return res
	}
	if sc.Spec != nil {
		env.Spec = *sc.Spec
	}
	for _, p := range sc.Phases {
		pr := runPhase(env, p)
		res.Phases = append(res.Phases, pr)
		if pr.Err != "" {
			res.Aborted = p.Name
			break
		}
	}
	return res
}

func runPhase(env *Env, p Phase) PhaseResult {
	pr := PhaseResult{Name: p.Name, Kind: p.Kind, Start: env.Sim.Now()}
	iters := p.Repeat
	if iters < 1 {
		iters = 1
	}
	for i := 0; i < iters && pr.Err == ""; i++ {
		pr.Iterations++
		runPhaseOnce(env, p, &pr)
	}
	pr.End = env.Sim.Now()
	return pr
}

// runPhaseOnce runs one iteration of a validated phase: every hook
// name resolves and a faults phase has its injector.
func runPhaseOnce(env *Env, p Phase, pr *PhaseResult) {
	switch p.Kind {
	case KindProvision:
		pr.converge(env, p)
	case KindFaults:
		if err := env.Injector.Schedule(faults.Plan{Seed: env.Seed, Events: p.Events}); err != nil {
			pr.Err = err.Error()
		}
	case KindRun:
		if p.Until > env.Sim.Now() {
			env.Sim.RunUntil(p.Until)
		}
	case KindAsserts:
		for _, name := range p.Hooks {
			if err := env.Asserts[name](env); err != nil {
				pr.Failures = append(pr.Failures, fmt.Sprintf("%s/%s: %v", p.Name, name, err))
			}
		}
	case KindWorkloads, KindChurn:
		for _, name := range p.Hooks {
			if err := env.hooks(p.Kind)[name](env); err != nil {
				pr.Err = fmt.Sprintf("%s hook %q: %v", p.Kind.hookNoun(), name, err)
				return
			}
		}
		if p.Kind == KindChurn {
			pr.converge(env, p)
		}
	}
}

// converge runs one converge of env.Spec under the phase's budget and
// drives the simulation until it finishes or the bound passes.
func (pr *PhaseResult) converge(env *Env, p Phase) {
	bound := p.Bound
	if bound <= 0 {
		bound = DefaultBound
	}
	res, finished := env.Controller.ConvergeWithin(env.Spec, fabric.ConvergeConfig{
		Budget:     p.Budget,
		Backoff:    p.Backoff,
		ApplyDelay: p.ApplyDelay,
	}, bound)
	if !finished {
		pr.Err = fmt.Sprintf("converge did not finish within %v", bound)
		return
	}
	pr.Converges = append(pr.Converges, res)
}
