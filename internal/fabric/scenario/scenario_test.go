package scenario_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/netsim"
)

const scenarioSrc = `
name: converge-under-reboot
spec:
  devices:
    - device: leaf0
      tenants:
        - id: 1
          policy: control
          words: 64
          weight: 10
          burst: 16
      services:
        - name: rcp
          words: 8
          seed: [1250000]
      routes:
        - dst: 10.0.0.1
          prio: 100
          port: 1
    - device: spine0
      routes:
        - dst: 10.0.0.1
          prio: 10
          port: 0
phases:
  # Declared out of dependency order on purpose: needs resolves it.
  - name: check
    kind: asserts
    needs: [heal]
    hooks: [verified]
  - name: provision
    kind: provision
    budget: 6
    backoff: 5ms
    bound: 500ms
  - name: storm
    kind: faults
    needs: [provision]
    events:
      - at: 10ms
        kind: switch-reboot
        target: $victim
        bootdelay: 1ms
  - name: work
    kind: workloads
    needs: [provision]
    hooks: [mark]
  - name: soak
    kind: run
    needs: [work, storm]
    until: 50ms
  # The reboot wiped leaf0's soft state; heal reconverges before the
  # invariant check.
  - name: heal
    kind: provision
    needs: [soak]
    budget: 6
    backoff: 5ms
    bound: 500ms
  - name: reshuffle
    kind: churn
    needs: [check]
    hooks: [shift]
    repeat: 3
    budget: 6
    backoff: 5ms
    bound: 500ms
`

var scenarioVars = map[string]string{"victim": "leaf0"}

// typedScenario is scenarioSrc as the Go value a harness builds, in the
// same (out of dependency order) declaration order.
func typedScenario() scenario.Scenario {
	const ms = netsim.Millisecond
	return scenario.Scenario{
		Name: "converge-under-reboot",
		Spec: &fabric.Spec{Devices: []fabric.DeviceSpec{
			{
				Device:   "leaf0",
				Tenants:  []fabric.Tenant{{ID: 1, Policy: fabric.PolicyControl, Words: 64, Weight: 10, Burst: 16}},
				Services: []fabric.Service{{Name: "rcp", Words: 8, Seed: []uint32{1250000}}},
				Routes:   []fabric.Route{{DstIP: 0x0a000001, Priority: 100, OutPort: 1}},
			},
			{Device: "spine0", Routes: []fabric.Route{{DstIP: 0x0a000001, Priority: 10, OutPort: 0}}},
		}},
		Phases: []scenario.Phase{
			{Name: "check", Kind: scenario.KindAsserts, Needs: []string{"heal"}, Hooks: []string{"verified"}},
			{Name: "provision", Kind: scenario.KindProvision, Budget: 6, Backoff: 5 * ms, Bound: 500 * ms},
			{Name: "storm", Kind: scenario.KindFaults, Needs: []string{"provision"}, Events: []faults.Event{
				{At: 10 * ms, Kind: faults.SwitchReboot, Target: "leaf0", BootDelay: ms}}},
			{Name: "work", Kind: scenario.KindWorkloads, Needs: []string{"provision"}, Hooks: []string{"mark"}},
			{Name: "soak", Kind: scenario.KindRun, Needs: []string{"work", "storm"}, Until: 50 * ms},
			{Name: "heal", Kind: scenario.KindProvision, Needs: []string{"soak"}, Budget: 6, Backoff: 5 * ms, Bound: 500 * ms},
			{Name: "reshuffle", Kind: scenario.KindChurn, Needs: []string{"check"}, Hooks: []string{"shift"},
				Repeat: 3, Budget: 6, Backoff: 5 * ms, Bound: 500 * ms},
		},
	}
}

type world struct {
	env   *scenario.Env
	leaf  *asic.Switch
	spine *asic.Switch
	marks int
}

func newWorld(seed int64) *world {
	sim := netsim.New(seed)
	w := &world{}
	w.leaf = asic.New(sim, asic.Config{ID: 1, Ports: 4, Guard: true, TPPRate: 1000})
	w.spine = asic.New(sim, asic.Config{ID: 2, Ports: 4})
	ctl := fabric.New(sim)
	ctl.Register("leaf0", w.leaf)
	ctl.Register("spine0", w.spine)
	inj := faults.NewInjector(sim, nil)
	inj.RegisterSwitch("leaf0", w.leaf)
	inj.RegisterSwitch("spine0", w.spine)
	w.env = &scenario.Env{
		Sim:        sim,
		Controller: ctl,
		Injector:   inj,
		Seed:       seed,
		Workloads: map[string]scenario.Hook{
			"mark": func(*scenario.Env) error { w.marks++; return nil },
		},
		Asserts: map[string]scenario.Hook{"verified": scenario.VerifySpec},
		Churns: map[string]scenario.Hook{
			"shift": func(e *scenario.Env) error {
				// Retarget the leaf route each iteration, wrapping inside
				// the leaf's ports: real churn, reconverged every time.
				for di, d := range e.Spec.Devices {
					if d.Device != "leaf0" {
						continue
					}
					for ri := range d.Routes {
						r := &e.Spec.Devices[di].Routes[ri]
						r.OutPort = (r.OutPort + 1) % w.leaf.Ports()
					}
				}
				return nil
			},
		},
	}
	return w
}

func run(t *testing.T, seed int64) (scenario.Result, *world) {
	t.Helper()
	w := newWorld(seed)
	sc, err := scenario.Parse(scenarioSrc, scenarioVars)
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Run(w.env, sc), w
}

func TestScenarioRun(t *testing.T) {
	res, w := run(t, 1)
	if !res.OK() {
		t.Fatalf("scenario not OK: aborted=%q failures=%v\n%+v", res.Aborted, res.Failures(), res.Phases)
	}

	// Dependency order, not declaration order.
	var order []string
	for _, p := range res.Phases {
		order = append(order, p.Name)
	}
	want := []string{"provision", "storm", "work", "soak", "heal", "check", "reshuffle"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("phase order = %v, want %v", order, want)
	}

	if w.marks != 1 {
		t.Fatalf("workload hook ran %d times", w.marks)
	}

	// The reboot at 10ms wiped leaf0's services; the churn converges
	// at 50ms+ re-provisioned them on the bumped epoch.
	if ep := w.leaf.Epoch(); ep != 1 {
		t.Fatalf("leaf0 epoch = %d, want 1", ep)
	}

	// repeat: 3 ran the churn body three times, each converged.
	last := res.Phases[len(res.Phases)-1]
	if last.Iterations != 3 || len(last.Converges) != 3 {
		t.Fatalf("churn: %d iterations, %d converges", last.Iterations, len(last.Converges))
	}
	for i, c := range last.Converges {
		if !c.Converged {
			t.Fatalf("churn converge %d: %+v", i, c)
		}
	}
	// Three port increments landed: the live route points 3 ports on,
	// wrapped inside the leaf's four (1 -> 2 -> 3 -> 0).
	if errs := w.env.Controller.Verify(w.env.Spec); len(errs) > 0 {
		t.Fatalf("final verify: %v", errs)
	}
	st, derr := w.env.Controller.ReadState("leaf0")
	if derr != nil || len(st.Routes) != 1 || st.Routes[0].OutPort != 0 {
		t.Fatalf("leaf0 final routes: %v %+v", derr, st.Routes)
	}
}

// TestScenarioDeterminism: the same scenario under the same seed
// produces a DeepEqual result; pinned seeds each replay identically
// run over run.
func TestScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a, _ := run(t, seed)
		b, _ := run(t, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: results differ:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
}

// TestTextAndTypedAgree: the text edge and the typed API cannot drift —
// Parse of the document and Validate of the hand-built value are the
// same scenario, and running either on the same rig gives the same
// result.
func TestTextAndTypedAgree(t *testing.T) {
	parsed, err := scenario.Parse(scenarioSrc, scenarioVars)
	if err != nil {
		t.Fatal(err)
	}
	typed, err := scenario.Validate(typedScenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, typed) {
		t.Fatalf("Parse and the typed value differ:\ntext  %+v\ntyped %+v", parsed, typed)
	}
	// Run orders an unvalidated value itself.
	fromText := scenario.Run(newWorld(1).env, parsed)
	fromValue := scenario.Run(newWorld(1).env, typedScenario())
	if !fromText.OK() || !reflect.DeepEqual(fromText, fromValue) {
		t.Fatalf("results differ:\ntext  %+v\ntyped %+v", fromText, fromValue)
	}
}

// TestTypedValidation: what the text edge rejects, the typed API
// rejects too, through the same validator — directly, and from Run
// before any phase executes or any simulated time passes.
func TestTypedValidation(t *testing.T) {
	soak := scenario.Phase{Name: "soak", Kind: scenario.KindRun, Until: 7 * netsim.Second}
	for _, tc := range []struct {
		name, phase, want string
		phases            []scenario.Phase
	}{
		{name: "cycle", phase: "a", want: "dependency cycle among a, b", phases: []scenario.Phase{
			soak,
			{Name: "a", Kind: scenario.KindProvision, Needs: []string{"b"}},
			{Name: "b", Kind: scenario.KindProvision, Needs: []string{"a"}},
		}},
		{name: "unknown hook", phase: "check", want: `unknown assert hook "verifid"`, phases: []scenario.Phase{
			soak,
			{Name: "check", Kind: scenario.KindAsserts, Needs: []string{"soak"}, Hooks: []string{"verifid"}},
		}},
		{name: "empty faults", phase: "storm", want: "no events", phases: []scenario.Phase{
			soak,
			{Name: "storm", Kind: scenario.KindFaults},
		}},
		{name: "run without until", phase: "idle", want: "needs until", phases: []scenario.Phase{
			soak,
			{Name: "idle", Kind: scenario.KindRun, Needs: []string{"soak"}},
		}},
		{name: "unknown kind", phase: "x", want: "unknown kind", phases: []scenario.Phase{
			soak,
			{Name: "x", Kind: "provison"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(1)
			sc := scenario.Scenario{Name: tc.name, Phases: tc.phases}
			var pe *scenario.PhaseError
			if _, err := scenario.Validate(sc, w.env); !errors.As(err, &pe) ||
				pe.Phase != tc.phase || !strings.Contains(pe.Msg, tc.want) {
				t.Fatalf("Validate err = %v, want phase %q: %q", err, tc.phase, tc.want)
			}
			res := scenario.Run(w.env, sc)
			if res.OK() || res.Aborted != tc.phase || len(res.Phases) != 1 ||
				!strings.Contains(res.Phases[0].Err, tc.want) {
				t.Fatalf("Run = %+v, want only %q reported with %q", res, tc.phase, tc.want)
			}
			if now := w.env.Sim.Now(); now != 0 {
				t.Fatalf("validation failure surfaced at t=%v, want t=0", now)
			}
		})
	}
}

func TestScenarioAbortsOnUnknownHook(t *testing.T) {
	w := newWorld(1)
	sc, err := scenario.Parse(`
name: bad
phases:
  - name: work
    kind: workloads
    hooks: [nope]
  - name: later
    kind: run
    needs: [work]
    until: 10ms
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.Run(w.env, sc)
	if res.OK() || res.Aborted != "work" {
		t.Fatalf("want abort at work: %+v", res)
	}
	if len(res.Phases) != 1 || !strings.Contains(res.Phases[0].Err, "unknown workload hook") {
		t.Fatalf("phases = %+v", res.Phases)
	}
}

// TestFaultsPhaseWithoutInjector: a rig that only provisions wires no
// injector; a faults phase on it is a hard phase error that skips the
// rest of the run, not a nil dereference.
func TestFaultsPhaseWithoutInjector(t *testing.T) {
	w := newWorld(1)
	w.env.Injector = nil
	sc, err := scenario.Parse(`
name: no-injector
phases:
  - name: provision
    kind: provision
  - name: storm
    kind: faults
    needs: [provision]
    events:
      - at: 1ms
        kind: switch-reboot
        target: leaf0
  - name: later
    kind: run
    needs: [storm]
    until: 10ms
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.Run(w.env, sc)
	if res.OK() || res.Aborted != "storm" {
		t.Fatalf("want abort at storm: %+v", res)
	}
	last := res.Phases[len(res.Phases)-1]
	if last.Name != "storm" || !strings.Contains(last.Err, "Injector") {
		t.Fatalf("phases = %+v", res.Phases)
	}
	if now := w.env.Sim.Now(); now != 0 {
		t.Fatalf("the run phase after the failed faults phase ran: t=%v", now)
	}
}

func TestScenarioAssertFailuresCollect(t *testing.T) {
	w := newWorld(1)
	w.env.Asserts["fail1"] = func(*scenario.Env) error { return fmt.Errorf("first") }
	w.env.Asserts["fail2"] = func(*scenario.Env) error { return fmt.Errorf("second") }
	sc, err := scenario.Parse(`
name: collect
phases:
  - name: check
    kind: asserts
    hooks: [fail1, fail2]
  - name: after
    kind: run
    needs: [check]
    until: 1ms
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.Run(w.env, sc)
	if res.Aborted != "" {
		t.Fatalf("assert failures must not abort: %+v", res)
	}
	if got := res.Failures(); len(got) != 2 {
		t.Fatalf("failures = %v", got)
	}
	if res.OK() {
		t.Fatal("failing asserts reported OK")
	}
	if len(res.Phases) != 2 {
		t.Fatal("scenario did not continue past failing asserts")
	}
}

func TestScenarioParseErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"phases:\n  - name: a\n    kind: bogus", "unknown kind"},
		{"phases:\n  - name: a\n    kind: run\n    until: 1ms\n  - name: a\n    kind: run\n    until: 2ms", "duplicate phase"},
		{"phases:\n  - name: a\n    kind: run\n    until: 1ms\n    needs: [ghost]", "unknown phase"},
		{"phases:\n  - name: a\n    kind: run\n    until: 1ms\n    needs: [b]\n  - name: b\n    kind: run\n    until: 1ms\n    needs: [a]", "cycle"},
		{"phases:\n  - name: a\n    kind: faults", "no events"},
		{"phases:\n  - name: a\n    kind: faults\n    events:\n      - at: 1ms\n        kind: switch-bounce\n        target: x", "unknown fault kind"},
		{"phases:\n  - name: a\n    kind: workloads", "no hooks"},
		{"phases:\n  - name: a\n    kind: run", "needs until"},
		{"phases:\n  - name: a\n    kind: faults\n    events:\n      - at: 1ms\n        kind: link-gray-down\n        target: x\n        dir: 0.7", "not an integer"},
	} {
		if _, err := scenario.Parse(tc.src, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) err = %v, want %q", tc.src, err, tc.want)
		}
	}
}

// TestParseDstMAC: a MAC is six whole two-digit hex bytes; a byte with
// a non-hex tail ("1z") used to scan as its leading digit.
func TestParseDstMAC(t *testing.T) {
	src := func(mac string) string {
		return "phases:\n  - name: a\n    kind: faults\n    events:\n      - at: 1ms\n        kind: rogue-tenant\n        target: h0\n        dstmac: \"" + mac + "\""
	}
	s, err := scenario.Parse(src("02:00:00:00:0a:Ff"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Phases[0].Events[0].DstMAC, (core.MAC{2, 0, 0, 0, 0x0a, 0xff}); got != want {
		t.Fatalf("DstMAC = %v, want %v", got, want)
	}
	for _, bad := range []string{
		"02:00:00:00:00:1z", "02:00:00:00:00:z1", "02:00:00:00:00:1", "02:00:00:00:00:001",
		"02:00:00:00:00", "02:00:00:00:00:01:02", "02:00:00:00:00:+1", "02:00:00:00:00:0x", "",
	} {
		if _, err := scenario.Parse(src(bad), nil); err == nil || !strings.Contains(err.Error(), "is not a MAC address") {
			t.Errorf("Parse(dstmac %q) err = %v, want a MAC error", bad, err)
		}
	}
}

// TestParseFaultKinds: every fault kind's name parses back to its kind;
// the names of deleted kinds, and an empty kind, do not.  Deleted kinds
// leave gaps in the numbering, and a gap must name itself "unknown",
// never "", or `kind: ""` would resolve to a deleted kind.
func TestParseFaultKinds(t *testing.T) {
	src := func(kind string) string {
		return "phases:\n  - name: a\n    kind: faults\n    events:\n      - at: 1ms\n        kind: " + kind + "\n        target: x"
	}
	kinds := []faults.Kind{
		faults.LinkDown, faults.LinkUp, faults.LinkBurstyLoss, faults.ClearLoss,
		faults.Blackhole, faults.ClearBlackhole, faults.SwitchReboot,
		faults.RogueTenant, faults.LinkGrayDown, faults.LinkGrayUp,
	}
	for _, k := range kinds {
		s, err := scenario.Parse(src(k.String()), nil)
		if err != nil {
			t.Fatalf("Parse(kind %s): %v", k, err)
		}
		if got := s.Phases[0].Events[0].Kind; got != k {
			t.Errorf("kind %q parsed as %d, want %d", k.String(), got, k)
		}
	}
	for _, name := range []string{"link-loss", "tcpu-off", "tcpu-on", "clear-rogue", `""`, "unknown"} {
		if _, err := scenario.Parse(src(name), nil); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
			t.Errorf("Parse(kind %s) err = %v, want an unknown fault kind", name, err)
		}
	}
	named := 0
	for k := range 256 {
		switch s := faults.Kind(k).String(); s {
		case "":
			t.Errorf("Kind(%d).String() is empty", k)
		case "unknown":
		default:
			named++
		}
	}
	if named != len(kinds) {
		t.Errorf("%d kinds have names, the test knows %d", named, len(kinds))
	}
	// The loss probability key went with the kind that read it.
	if _, err := scenario.Parse(src("link-bursty-loss")+"\n        p: 0.5", nil); err == nil || !strings.Contains(err.Error(), `unknown key "p"`) {
		t.Errorf("Parse(p: 0.5) err = %v, want an unknown key", err)
	}
}
