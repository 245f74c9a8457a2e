// Command experiments regenerates every table and figure of the TPP
// paper on the simulated substrate.  Each subcommand prints the rows or
// series the paper reports and, when -out is set, writes CSV files for
// plotting.
//
// Usage:
//
//	experiments [-out DIR] [-metrics FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE] <experiment>
//
// Run it without arguments for the list of experiments.
//
// -cpuprofile and -memprofile write runtime/pprof profiles on clean
// exit (inspect with `go tool pprof`).
//
// -metrics and -trace enable the telemetry subsystem (internal/obs) for
// the experiments that support it (microburst, ndb, blackhole, fig2):
// the final metrics snapshot and the packet-lifecycle span log are
// written as JSONL to the given files ("-" for stdout).  The log holds
// spanLogEvents events, enough for `all` several times over.  With
// -trace, the snapshot carries the log's own totals (gauges
// obs/spans_total and obs/spans_dropped), and a log that did overflow —
// the older events overwritten — is announced on stderr, not exported
// silently.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/obs"
	"repro/internal/trace"
)

// experiment is one reproducible artifact.
type experiment struct {
	name  string
	about string
	fn    func(out *output) error
}

var experiments = []experiment{
	{"table1", "instruction set semantics and TCPU cost", runTable1},
	{"table2", "statistics namespaces via the unified memory map", runTable2},
	{"fig1", "queue-size query walking a 3-switch path", runFig1},
	{"fig2", "RCP* vs native RCP convergence on a 10 Mb/s bottleneck", runFig2},
	{"fig3", "dataplane pipeline stages and forwarding latency", runFig3},
	{"fig4", "TPP wire format overheads (§3.3)", runFig4},
	{"fig5", "TCPU pipeline cycle model and the 300-cycle budget", runFig5},
	{"microburst", "§2.1 micro-burst detection vs coarse polling", runMicroburst},
	{"ndb", "§2.3 forwarding-plane debugger vs packet-copy baseline", runNdb},
	{"blackhole", "ndb blackhole localization under fault injection", runBlackhole},
	{"wireless", "per-packet SNR sampling vs polling (§2 extension)", runWireless},
	{"aimd", "extension: RCP* vs TCP-style AIMD head-to-head", runAIMD},
	{"breakdown", "§2.1 per-hop queueing-latency breakdown", runBreakdown},
	{"accounting", "§2.2 consistency: CSTORE vs racy read-modify-write", runAccounting},
	{"fct", "extension: flow completion time, RCP* vs AIMD", runFCT},
	{"reboot", "robustness: switch crash-restart chaos soak", runReboot},
	{"hostile", "robustness: hostile-tenant isolation soak", runHostile},
	{"converge", "robustness: fabric converge-under-churn vs crash-restarts", runConverge},
	{"reroute", "robustness: reflex fast-reroute vs prober-driven repair", runReroute},
	{"rtthist", "in-band dataplane RTT histogram vs host ground truth", runRTTHist},
	{"spinbit", "passive spin-bit RTT observer at a mid-path switch", runSpinBit},
}

// spanLogEvents bounds the -trace span log.  The tracer allocates a
// chunk at a time as events arrive, so the bound costs nothing until it
// is reached; `all` records 215 310 events.
const spanLogEvents = 1 << 20

// runAll passes every experiment to run in table order, framing each
// one's output with its banner: the transcript committed as
// experiments_output.txt.
func runAll(out *output, run func(experiment)) {
	for _, e := range experiments {
		out.printf("== %s: %s ==\n", e.name, e.about)
		run(e)
		out.printf("\n")
	}
}

func main() {
	outDir, metricsPath, tracePath := "", "", ""
	cpuProfile, memProfile := "", ""
	args := os.Args[1:]
	for len(args) >= 2 {
		switch args[0] {
		case "-out":
			outDir = args[1]
		case "-metrics":
			metricsPath = args[1]
		case "-trace":
			tracePath = args[1]
		case "-cpuprofile":
			cpuProfile = args[1]
		case "-memprofile":
			memProfile = args[1]
		default:
			usage()
			os.Exit(2)
		}
		args = args[2:]
	}
	if len(args) != 1 {
		usage()
		os.Exit(2)
	}
	name := args[0]

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(memProfile)

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	out := &output{dir: outDir, w: os.Stdout}
	if metricsPath != "" {
		out.metrics = obs.NewRegistry()
	}
	if tracePath != "" {
		out.tracer = obs.NewTracer(spanLogEvents)
	}
	runOne := func(e experiment) {
		if err := e.run(out); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	found := false
	if name == "all" {
		runAll(out, runOne)
		found = true
	} else {
		for _, e := range experiments {
			if e.name == name {
				runOne(e)
				found = true
				break
			}
		}
	}
	if !found {
		usage()
		os.Exit(2)
	}
	if err := dumpTelemetry(out, metricsPath, tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// dumpTelemetry writes the accumulated metrics snapshot and span log as
// JSONL to the -metrics/-trace destinations.
func dumpTelemetry(out *output, metricsPath, tracePath string) error {
	write := func(path string, emit func(io.Writer) error) error {
		if path == "-" {
			return emit(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if out.tracer != nil {
		// Before the snapshot, so it carries the span log's own totals.
		out.tracer.ReportSelf(out.metrics, os.Stderr)
		if err := write(tracePath, out.tracer.WriteJSONL); err != nil {
			return err
		}
	}
	if out.metrics != nil {
		snap := out.metrics.Snapshot(0)
		if err := write(metricsPath, snap.WriteJSONL); err != nil {
			return err
		}
	}
	return nil
}

// writeMemProfile dumps a GC-settled heap profile on clean exit.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-out DIR] [-metrics FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE] <experiment>")
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, fmt.Sprintf("  %-11s %s", e.name, e.about))
	}
	names = append(names, "  all         run everything")
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(os.Stderr, n)
	}
}

// output bundles the terminal stream, the optional CSV directory, and
// the optional telemetry sinks experiments thread into their runs.
type output struct {
	dir     string
	w       io.Writer
	metrics *obs.Registry
	tracer  *obs.Tracer

	// CSV streams the running experiment opened, their files (absent
	// without -out), and the first failure to open one.
	csvs    []*trace.CSV
	files   []*os.File
	openErr error
}

func (o *output) printf(format string, args ...any) {
	fmt.Fprintf(o.w, format, args...)
}

// csv starts the CSV stream DIR/name with the given header, or one that
// goes nowhere when -out is unset.  It never fails at the call site:
// run reports the first open, write or close error of every stream.
func (o *output) csv(name string, header ...string) *trace.CSV {
	var w io.Writer = io.Discard
	if o.dir != "" {
		if f, err := os.Create(filepath.Join(o.dir, name)); err == nil {
			o.files = append(o.files, f)
			w = f
		} else if o.openErr == nil {
			o.openErr = err
		}
	}
	c := trace.NewCSV(w, header...)
	o.csvs = append(o.csvs, c)
	return c
}

// run executes one experiment, closes every CSV file it opened, and
// returns its error or else the first CSV error: a results file that
// could not be written in full is a failed run.
func (e experiment) run(out *output) error {
	err := e.fn(out)
	if err == nil {
		err = out.openErr
	}
	for _, c := range out.csvs {
		if err == nil {
			err = c.Err()
		}
	}
	for _, f := range out.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	out.csvs, out.files, out.openErr = nil, nil, nil
	return err
}
