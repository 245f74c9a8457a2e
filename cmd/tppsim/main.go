// Command tppsim sends a user-supplied tiny packet program across a
// simulated topology and prints the fully executed program the receiver
// echoed back, one hop per line — an interactive "what would the
// network tell me" tool.
//
// Usage:
//
//	tppsim [-topo line|dumbbell] [-switches N] [-load] [-metrics FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE] [file.tpp]
//
// The program is read from file.tpp (or stdin).  With -load, a
// 20-packet burst is queued ahead of the probe so queue statistics are
// non-trivial.  -metrics and -trace enable the telemetry subsystem
// (internal/obs): a JSONL metrics snapshot and the packet-lifecycle
// span log are written to the given files ("-" for stdout), and the
// probe's reconstructed journey is printed.  With -trace, the snapshot
// carries the span log's own totals (gauges obs/spans_total and
// obs/spans_dropped), and a log that overflowed is announced on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/asic"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/topo"
)

func main() {
	topoName := flag.String("topo", "line", "topology: line or dumbbell")
	switches := flag.Int("switches", 3, "switch count (line topology)")
	load := flag.Bool("load", false, "queue a burst ahead of the probe")
	metricsPath := flag.String("metrics", "", `write a JSONL metrics snapshot here ("-" for stdout); its netsim/* engine rows count only events that ran: `+
		`on links with propagation delay events_executed, heap_peak and pending_peak read lower than before transmit-complete became on-demand, `+
		`and arms_discarded and wakeups_asked (of link_sends) say what was skipped; heap_peak and pending_peak are high-water marks `+
		`carried as counter rows, so do not add or difference them`)
	tracePath := flag.String("trace", "", `write the packet-lifecycle span log here as JSONL ("-" for stdout)`)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile here (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile here on exit (go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	src, err := readInput(flag.Args())
	if err != nil {
		fail(err)
	}
	metricsW, closeMetrics, err := openOut(*metricsPath)
	if err != nil {
		fail(err)
	}
	defer closeMetrics()
	traceW, closeTrace, err := openOut(*tracePath)
	if err != nil {
		fail(err)
	}
	defer closeTrace()
	if err := run(*topoName, *switches, *load, src, os.Stdout, metricsW, traceW); err != nil {
		fail(err)
	}
}

// openOut resolves an output flag: empty means disabled (nil writer),
// "-" means stdout, anything else is created as a file.
func openOut(path string) (io.Writer, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, func() {}, err
	}
	return f, func() { f.Close() }, nil
}

// run executes the scenario; split out of main for testability.  A nil
// metricsW/traceW disables the corresponding telemetry half.
func run(topoName string, switches int, load bool, src string, w, metricsW, traceW io.Writer) error {
	prog, err := asm.Assemble(src)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	var tracer *obs.Tracer
	if metricsW != nil {
		reg = obs.NewRegistry()
	}
	if traceW != nil {
		tracer = obs.NewTracer(0)
	}

	sim := netsim.New(1)
	reg.Collect(sim.Collect) // the engine's and the packet pool's counts
	edge := topo.Mbps(80, 10*netsim.Microsecond)
	backbone := topo.Mbps(8, 10*netsim.Microsecond)
	swCfg := topo.Uniform(asic.Config{Metrics: reg, Trace: tracer})

	var n *topo.Network
	var from, to *endhost.Host
	switch topoName {
	case "line":
		if switches < 1 {
			return fmt.Errorf("-switches %d: a line needs at least one switch", switches)
		}
		n, from, to, _ = topo.Line(sim, switches, edge, backbone, swCfg, tracer)
	case "dumbbell":
		d := topo.Dumbbell(sim, 2, edge, backbone, swCfg, tracer)
		rcp.InitRateRegisters(d.A, d.B)
		n, from, to = d.Network, d.Senders[0], d.Receivers[0]
	default:
		return fmt.Errorf("unknown topology %q", topoName)
	}
	// What the links' transmitters did not have to run: the sends whose
	// transmit-complete wake-up nobody asked for.
	reg.Collect(func(emit func(string, uint64)) {
		sends, asked := linkTotals(n)
		emit("netsim/link_sends", sends)
		emit("netsim/wakeups_asked", asked)
	})
	n.PrimeL2(5 * netsim.Millisecond)

	if load {
		for i := 0; i < 20; i++ {
			from.Send(from.NewPacket(to.MAC, to.IP, 5000, 5001, 986))
		}
	}

	prober := endhost.NewProber(from)
	var echoed *core.TPP
	prober.Probe(to.MAC, to.IP, prog.TPP, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + netsim.Second)

	if echoed == nil {
		return fmt.Errorf("probe was lost (congestion?)")
	}
	fmt.Fprintf(w, "executed program returned: ptr=%d flags=%#x\n", echoed.Ptr, echoed.Flags)
	perHop := len(prog.TPP.Ins)
	if echoed.Mode == core.AddrStack && perHop > 0 {
		hops := int(echoed.Ptr) / 4 / perHop
		for h := 0; h < hops; h++ {
			fmt.Fprintf(w, "hop %d:", h+1)
			for k := 0; k < perHop; k++ {
				fmt.Fprintf(w, " %d", echoed.Word(h*perHop+k))
			}
			fmt.Fprintln(w)
		}
	}
	for i := 0; i < echoed.MemWords(); i++ {
		fmt.Fprintf(w, "mem[%2d] = 0x%08x (%d)\n", i, echoed.Word(i), echoed.Word(i))
	}

	if tracer != nil {
		// The probe is the only TPP-carrying packet, so the last TCPU
		// span identifies it; reconstruct and print its full journey.
		var probeUID uint64
		tracer.Each(func(ev *obs.SpanEvent) {
			if ev.Stage == obs.StageTCPU {
				probeUID = ev.UID
			}
		})
		if probeUID != 0 {
			fmt.Fprintf(w, "\nprobe journey (uid %#x):\n", probeUID)
			for _, ev := range tracer.Journey(probeUID) {
				fmt.Fprintf(w, "  %9dns  node %-3d %-12s a=%d b=%d\n",
					ev.At, ev.Node, ev.Stage, ev.A, ev.B)
			}
		}
		if err := exportSpans(tracer, reg, traceW, os.Stderr); err != nil {
			return err
		}
	}
	if reg != nil {
		if err := reg.Snapshot(int64(sim.Now())).WriteJSONL(metricsW); err != nil {
			return err
		}
	}
	return nil
}

// linkTotals sums, over every transmitter of the network — each host's
// NIC and each wired switch port — the frames sent and the
// transmit-complete wake-ups asked for.
func linkTotals(n *topo.Network) (sends, asked uint64) {
	add := func(ch *netsim.Channel) {
		if ch != nil {
			sends += ch.PacketsSent
			asked += ch.WakeupsAsked
		}
	}
	for _, h := range n.Hosts {
		add(h.NIC.Channel())
	}
	for _, sw := range n.Switches {
		for i := 0; i < sw.Ports(); i++ {
			add(sw.Port(i).Channel())
		}
	}
	return sends, asked
}

// exportSpans writes the span log to traceW, after saying what the log
// is worth: its totals go into reg as gauges (a nil reg takes none),
// and an overflowed log is announced on errW, not exported silently.
func exportSpans(tracer *obs.Tracer, reg *obs.Registry, traceW, errW io.Writer) error {
	tracer.ReportSelf(reg, errW)
	return tracer.WriteJSONL(traceW)
}

func readInput(args []string) (string, error) {
	if len(args) == 0 || args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(args[0])
	return string(b), err
}

// writeMemProfile dumps a GC-settled heap profile on clean exit.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppsim:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "tppsim:", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tppsim:", err)
	os.Exit(1)
}
