// Command fabricctl converges a simulated leaf-spine fabric onto a
// declarative spec.  The document names a topology and the desired
// per-device state (tenants, services, routes, prefixes):
//
//	topology:
//	  leaves: 2
//	  spines: 2
//	  hosts: 2        # per leaf
//	  guard: true     # tenant guard tables on every switch
//	spec:
//	  devices:
//	    - device: leaf0
//	      routes:
//	        - dst: 10.0.0.1
//	          prio: 100
//	          port: 2
//
// Switches are named leaf0..leafN-1 and spine0..spineM-1 and have
// exactly the ports the topology wires: a leaf's uplinks to spines
// 0..M-1 come first, then its hosts; a spine's ports 0..N-1 descend to
// the leaves.  A route or prefix to any other port is refused as a
// spec-invalid device error (exit 1), never converged.  By default
// fabricctl is a dry run: it reads the live state back, diffs it
// against the spec and prints the ordered ChangeSet without applying
// anything.  With -execute it converges (diff, apply atomically per
// device with epoch-stamped writes, re-read and verify field by field,
// retry with bounded backoff) and reports the outcome.
//
// Exit status: 0 on a clean dry run or full convergence, 1 when the
// diff or converge reports device errors or convergence is partial,
// 2 on usage, parse or spec errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/asic"
	"repro/internal/fabric"
	"repro/internal/fabric/yamlite"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// topology is the simulated fabric a document provisions.
type topology struct {
	Leaves, Spines, Hosts int
	Guard                 bool
	TPPRate               float64
	TPPBurst              int
}

func defaultTopology() topology {
	return topology{Leaves: 2, Spines: 2, Hosts: 2}
}

func decodeTopology(n *yamlite.Node) (topology, error) {
	t := defaultTopology()
	if n == nil {
		return t, nil
	}
	for _, k := range n.Keys() {
		v := n.Get(k)
		var err error
		switch k {
		case "leaves":
			var x int64
			if x, err = v.Int(); err == nil {
				t.Leaves = int(x)
			}
		case "spines":
			var x int64
			if x, err = v.Int(); err == nil {
				t.Spines = int(x)
			}
		case "hosts":
			var x int64
			if x, err = v.Int(); err == nil {
				t.Hosts = int(x)
			}
		case "guard":
			t.Guard, err = v.Bool()
		case "tpprate":
			t.TPPRate, err = v.Float()
		case "tppburst":
			var x int64
			if x, err = v.Int(); err == nil {
				t.TPPBurst = int(x)
			}
		default:
			return t, fmt.Errorf("topology: unknown key %q", k)
		}
		if err != nil {
			return t, fmt.Errorf("topology: %s: %v", k, err)
		}
	}
	if t.Leaves < 1 || t.Spines < 1 || t.Hosts < 0 {
		return t, fmt.Errorf("topology: needs at least one leaf and one spine")
	}
	// A NaN rate would admit every TPP and a negative one would switch
	// the gate off; a negative burst would silently become the default.
	if math.IsNaN(t.TPPRate) || math.IsInf(t.TPPRate, 0) || t.TPPRate < 0 {
		return t, fmt.Errorf("topology: tpprate: %v is not a finite, non-negative rate", t.TPPRate)
	}
	if t.TPPBurst < 0 {
		return t, fmt.Errorf("topology: tppburst: %d is negative", t.TPPBurst)
	}
	return t, nil
}

// build instantiates the simulated fabric and registers every switch on
// a controller under its leaf<i>/spine<j> name.  Every switch has
// exactly the ports the topology wires.
func build(sim *netsim.Sim, t topology) *fabric.Controller {
	edge := topo.Mbps(20, 10*netsim.Microsecond)
	backbone := topo.Mbps(10, 10*netsim.Microsecond)
	ctl := fabric.New(sim)
	topo.LeafSpine(sim, t.Leaves, t.Spines, t.Hosts, edge, backbone, topo.Uniform(asic.Config{
		Guard: t.Guard, TPPRate: t.TPPRate, TPPBurst: t.TPPBurst}), nil).Register(ctl, nil)
	return ctl
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fabricctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	execute := fs.Bool("execute", false, "apply the ChangeSet (default: dry run)")
	seed := fs.Int64("seed", 1, "simulation seed")
	budget := fs.Int("budget", 5, "converge attempt budget")
	backoffStr := fs.String("backoff", "10ms", "initial retry backoff (doubles per attempt)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fabricctl [-execute] [-seed N] [-budget N] [-backoff DUR] <spec.yaml>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	backoff, err := fabric.ParseDuration(*backoffStr)
	if err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}
	// ConvergeConfig reads zero as "the default"; a caller who spelled
	// out a budget or backoff that cannot work is told so instead.
	if *budget < 1 {
		fmt.Fprintf(stderr, "fabricctl: -budget %d: need at least one attempt\n", *budget)
		return 2
	}
	if backoff <= 0 {
		fmt.Fprintf(stderr, "fabricctl: -backoff %s: must be positive\n", *backoffStr)
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}

	root, err := yamlite.Parse(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}
	if err := root.CheckKeys("topology", "spec"); err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}
	topoSpec, err := decodeTopology(root.Get("topology"))
	if err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}
	spec, err := fabric.DecodeSpec(root.Get("spec"))
	if err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}

	sim := netsim.New(*seed)
	ctl := build(sim, topoSpec)

	cs, derrs, err := ctl.Diff(spec)
	if err != nil {
		fmt.Fprintf(stderr, "fabricctl: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, cs.String())
	if len(derrs) > 0 {
		for _, de := range derrs {
			fmt.Fprintf(stderr, "fabricctl: %v\n", &de)
		}
		return 1
	}
	if !*execute {
		if !cs.Empty() {
			fmt.Fprintf(stdout, "dry run: %d ops across %d devices not applied (use -execute)\n",
				cs.Ops(), len(cs.Devices))
		}
		return 0
	}

	cfg := fabric.ConvergeConfig{Budget: *budget, Backoff: backoff}
	res, done := ctl.ConvergeWithin(spec, cfg, netsim.Second)
	if !done {
		fmt.Fprintln(stderr, "fabricctl: converge did not finish within 1s of simulated time")
		return 1
	}
	for _, r := range res.Rounds {
		fmt.Fprintf(stdout, "round at t=%dns: %d ops planned, %d applied, %d errors\n",
			r.At, r.Ops, r.Applied, len(r.Errors))
	}
	if !res.Converged {
		fmt.Fprintf(stderr, "fabricctl: partial convergence after %d attempts (budget exhausted: %v)\n",
			res.Attempts, res.BudgetExhausted)
		for _, de := range res.Pending {
			fmt.Fprintf(stderr, "fabricctl: pending: %v\n", &de)
		}
		return 1
	}
	if errs := ctl.Verify(spec); len(errs) > 0 {
		for _, de := range errs {
			fmt.Fprintf(stderr, "fabricctl: verify: %v\n", &de)
		}
		return 1
	}
	fmt.Fprintf(stdout, "converged: %d ops applied in %d attempt(s); live state verified field-for-field\n",
		res.OpsApplied, res.Attempts)
	return 0
}
