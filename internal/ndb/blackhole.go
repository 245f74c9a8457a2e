package ndb

import (
	"sort"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// BlackholeConfig parameterizes the blackhole-localization experiment:
// an ndb-style hunt for a silently failed fabric link using nothing but
// TPP hop traces collected by an end host.  A leaf-spine fabric routes
// deterministically (traffic to host j of any leaf rides spine j); one
// leaf-spine link goes down mid-run, eating packets without any
// notification, and the prober localizes it by set subtraction: links
// on the paths of probes that died, minus links proven alive by probes
// that returned.
type BlackholeConfig struct {
	// FailLeaf/FailSpine name the fabric link that silently dies at
	// FailAt and recovers at RecoverAt.
	FailLeaf, FailSpine int

	// Trace, when non-nil, receives fault and packet spans.
	Trace *obs.Tracer
}

// The blackhole fabric has 3 leaves (enough to disambiguate fully) and
// 2 spines, with one host per spine on every leaf, all links 100 Mb/s;
// the failed link is down from 50ms to 150ms.
const (
	BlackholeLeaves = 3
	BlackholeSpines = 2
	FailAt          = 50 * netsim.Millisecond
	RecoverAt       = 150 * netsim.Millisecond
)

// DefaultBlackholeConfig is the canonical run: link leaf1-spine0 fails.
func DefaultBlackholeConfig() BlackholeConfig {
	return BlackholeConfig{FailLeaf: 1, FailSpine: 0}
}

// LinkID names one leaf-spine fabric link.
type LinkID struct {
	Leaf, Spine int
}

func (l LinkID) String() string { return topo.FabricLinkName(l.Leaf, l.Spine) }

// BlackholeResult summarizes one localization run.
type BlackholeResult struct {
	// Healthy baseline round: every path answers.
	BaselinePaths int

	// Fault round: the evidence and the verdict.
	Candidates []LinkID // links on paths whose probes died
	ProvenUp   []LinkID // links traversed by probes that returned
	Suspects   []LinkID // Candidates minus ProvenUp
	Localized  bool     // exactly one suspect: the failed link

	// Recovery round: paths answering after the link came back.
	RecoveredPaths int

	// Probe-machinery telemetry across all rounds.
	ProbesSent  uint64
	Echoed      uint64
	TimedOut    uint64
	Retransmits uint64

	// Fault events visible in the span stream (when Config.Trace set).
	FaultSpans int
}

// hopTraceProgram is the probe: PUSH [Switch:SwitchID] at every hop,
// with room for a leaf-spine-leaf walk plus slack.
func hopTraceProgram() *core.TPP {
	tpp, err := endhost.CollectProgram(
		[]mem.Addr{mem.SwitchBase + mem.SwitchID}, 4, 5)
	if err != nil {
		panic(err)
	}
	return tpp
}

// RunBlackhole executes the experiment.
func RunBlackhole(cfg BlackholeConfig) BlackholeResult {
	sim := netsim.New(1)
	edge := topo.Mbps(100, 10*netsim.Microsecond)
	fabric := topo.Mbps(100, 10*netsim.Microsecond)
	// One host per spine on every leaf: host j is reached via spine j,
	// so probing every host exercises every fabric link.
	net := topo.LeafSpine(sim, BlackholeLeaves, BlackholeSpines, BlackholeSpines, edge, fabric,
		topo.Uniform(asic.Config{Trace: cfg.Trace}), cfg.Trace)
	hosts := net.LeafHosts
	topo.InstallRoutes(net.Routes(topo.HostSpine), 0)

	// linksOf decodes the fabric links a returned hop trace proves up.
	linksOf := func(e *core.TPP) []LinkID {
		words := e.Hop(1)
		var out []LinkID
		for i := 0; i+1 < words; i++ {
			ta, a, okA := net.Locate(e.Word(i))
			tb, b, okB := net.Locate(e.Word(i + 1))
			if !okA || !okB || ta == tb {
				continue
			}
			if ta == topo.Spine {
				a, b = b, a
			}
			out = append(out, LinkID{Leaf: a, Spine: b})
		}
		return out
	}

	// The injected failure: one fabric link silently eats frames.
	inj := faults.NewInjector(sim, cfg.Trace)
	net.Register(nil, inj)
	fail := LinkID{Leaf: cfg.FailLeaf, Spine: cfg.FailSpine}
	if err := inj.Schedule(faults.Plan{Seed: 1, Events: faults.Flap(
		fail.String(), FailAt, RecoverAt-FailAt)}); err != nil {
		panic(err)
	}

	// One prober per source-leaf host.  Vantage diversity is what makes
	// the hunt conclusive: the echo to host (0, sj) rides spine sj on
	// the way back, so only a sweep from every source host observes
	// every fabric link on a leg it can reason about.
	// Probe resilience: a 5ms deadline, two retries, doubling backoff.
	probers := make([]*endhost.Prober, BlackholeSpines)
	for sj := range probers {
		probers[sj] = endhost.NewProber(hosts[0][sj])
		probers[sj].SetDefaults(endhost.ProbeConfig{
			Timeout: 5 * netsim.Millisecond, Retries: 2, Backoff: 2,
		})
	}

	// A probe from host (0, sj) to host (li, hj) rides spine hj out and
	// spine sj back (replies are routed by the source host's IP).
	forwardLinks := func(li, hj int) []LinkID {
		return []LinkID{{Leaf: 0, Spine: hj}, {Leaf: li, Spine: hj}}
	}
	reverseLinks := func(li, sj int) []LinkID {
		return []LinkID{{Leaf: li, Spine: sj}, {Leaf: 0, Spine: sj}}
	}

	// round sweeps every (source host, far host) pair and waits out the
	// worst-case retry schedule; it reports which walks answered.
	type outcome struct {
		sj, li, hj int
		echo       *core.TPP
	}
	round := func() []outcome {
		var outs []outcome
		for sj := 0; sj < BlackholeSpines; sj++ {
			for li := 1; li < BlackholeLeaves; li++ {
				for hj := 0; hj < BlackholeSpines; hj++ {
					sj, li, hj := sj, li, hj
					dst := hosts[li][hj]
					probers[sj].ProbeCfg(dst.MAC, dst.IP, hopTraceProgram(), probers[sj].Defaults(),
						func(e *core.TPP) { outs = append(outs, outcome{sj, li, hj, e.Clone()}) },
						func() { outs = append(outs, outcome{sj, li, hj, nil}) })
				}
			}
		}
		// Retry budget: timeout * (1 + backoff + backoff^2 + ...),
		// bounded well below the inter-round spacing.
		sim.RunUntil(sim.Now() + 45*netsim.Millisecond)
		return outs
	}

	var res BlackholeResult

	// Round 1 (healthy): establish that every path answers.
	for _, o := range round() {
		if o.echo != nil {
			res.BaselinePaths++
		}
	}

	// Round 2 (fault active): collect evidence and localize.  A dead
	// walk indicts every link on its round trip; a surviving walk
	// clears the links its hop trace recorded (forward, from the TPP)
	// and the links its echo must have ridden home (reverse, from the
	// routing).
	sim.RunUntil(FailAt + 5*netsim.Millisecond)
	candidates := map[LinkID]bool{}
	proven := map[LinkID]bool{}
	for _, o := range round() {
		if o.echo == nil {
			for _, l := range forwardLinks(o.li, o.hj) {
				candidates[l] = true
			}
			for _, l := range reverseLinks(o.li, o.sj) {
				candidates[l] = true
			}
			continue
		}
		for _, l := range linksOf(o.echo) {
			proven[l] = true
		}
		for _, l := range reverseLinks(o.li, o.sj) {
			proven[l] = true
		}
	}
	res.Candidates = sortedLinks(candidates)
	res.ProvenUp = sortedLinks(proven)
	for _, l := range res.Candidates {
		if !proven[l] {
			res.Suspects = append(res.Suspects, l)
		}
	}
	res.Localized = len(res.Suspects) == 1

	// Round 3 (recovered): the same paths answer again.
	sim.RunUntil(RecoverAt + 5*netsim.Millisecond)
	for _, o := range round() {
		if o.echo != nil {
			res.RecoveredPaths++
		}
	}

	for _, p := range probers {
		res.ProbesSent += p.Sent
		res.Echoed += p.Matched
		res.TimedOut += p.TimedOut
		res.Retransmits += p.Retransmits
	}
	if cfg.Trace != nil {
		cfg.Trace.Each(func(ev *obs.SpanEvent) {
			if ev.Stage == obs.StageFaultInject || ev.Stage == obs.StageFaultRecover {
				res.FaultSpans++
			}
		})
	}
	return res
}

func sortedLinks(set map[LinkID]bool) []LinkID {
	out := make([]LinkID, 0, len(set))
	for l := range set { //lint:allow maporder (sorted before return)
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Leaf != out[j].Leaf {
			return out[i].Leaf < out[j].Leaf
		}
		return out[i].Spine < out[j].Spine
	})
	return out
}
