// Command tppbench is the repository's benchmark: six closed-loop
// workloads over the simulator, host-time metrics measured with the
// driver's tracing off, simulated statistics checked as correctness,
// and a separate traced run that times calls into each layer.
//
//	tppbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//	tppbench                                                all six workloads, one after another
//	tppbench -sets N                                        N sets in child processes, spreads against the bounds
//	tppbench -update-golden                                 rewrite the seed-1 sim_digest goldens
//
// See bench/README.md for the metric glossary and measuring protocol.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.  BENCHMARK.json carries the
// same lists (with direction and bound); the test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees.  An operation
// is one packet (packet workloads) or one experiment run (sweeps).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"us_per_op_p10", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"mem_live_mb", "MB"},
}

const (
	// setupReps is how many times an untraced run sets the workload up.
	// setup_s is their 10th percentile — like a timed step, a set-up is
	// either undisturbed or not, and the undisturbed time is what
	// repeats — and the repeats double as the check that one seed gives
	// one digest within a process.
	setupReps = 9
	// sampleCap presizes the per-step sample buffer for four times the
	// steps the fastest workload takes in a 10 s run, so the buffer's
	// growth never shows up in mem_live_mb.
	sampleCap = 1 << 18
	// traceChunk is the number of consecutive steps the traced run
	// spends in each of its alternating traced and untraced stretches.
	traceChunk = 32
)

//go:embed golden.json
var goldenJSON []byte

// golden maps seed (as a decimal string) to workload name to digest.
type golden map[string]map[string]string

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing embedded golden.json: %w", err)
	}
	return g, nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	steps    int // fixed work: timed steps per run (0 = time-bound)
	outDir   string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last-line JSON object of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace, sets int
	var updateGolden bool
	var goldenPath, specPath string
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all six in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.IntVar(&o.steps, "steps", 0, "fixed work: time exactly this many batches/runs instead of -seconds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes its span files to")
	flag.IntVar(&sets, "sets", 0, "run this many full sets in child processes (seed, seed+1, ...) and check spreads against the bounds")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "benchmark definition -sets reads the bounds from")
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite the seed-1 digests and exit")
	flag.StringVar(&goldenPath, "golden", "bench/tppbench/golden.json", "file -update-golden writes")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case updateGolden:
		err = writeGolden(goldenPath)
	case sets > 0:
		err = runSets(o, sets, specPath)
	default:
		err = runWorkloads(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppbench:", err)
		os.Exit(1)
	}
}

// runWorkloads runs the named workload, or all six, printing a report
// and a result line for each.
func runWorkloads(o options) error {
	list := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		list = []*workload{w}
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	printHeader(o)
	ok := true
	for _, w := range list {
		r := runOne(w, o, gold)
		res := r.result()
		r.report(os.Stdout, res)
		line, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("encoding result: %w", err)
		}
		fmt.Printf("%s\n", line)
		ok = ok && r.correct()
	}
	if !ok {
		return fmt.Errorf("outputs incorrect (see problems above)")
	}
	return nil
}

func printHeader(o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	work := fmt.Sprintf("%gs timed", o.seconds)
	if o.steps > 0 {
		work = fmt.Sprintf("%d timed steps", o.steps)
	}
	fmt.Printf("# tppbench nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d %s trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, work, o.trace)
}

// run is everything measured in one run of one workload.
type run struct {
	w    *workload
	o    options
	inst instance
	tr   *tracer // nil when untraced

	setups    []float64 // seconds per set-up repetition
	digest    string
	problems  []string
	attempted int
	failed    int

	// Timed section.  plain are the per-step samples (µs per
	// operation) taken with the driver's tracing off, traced those with
	// it on (traced run only).
	plain, traced []float64
	timedOps      int
	timedFailed   int
	elapsed       time.Duration
	wall          time.Duration
	ms0, ms1      runtime.MemStats
	liveBytes     uint64 // heap still in use after a collection at the end

	layers map[string]float64 // traced run only
}

// runOne sets the workload up, checks its digest, and measures it.
func runOne(w *workload, o options, gold golden) *run {
	r := &run{w: w, o: o}
	wallStart := time.Now()
	reps := setupReps
	if o.trace {
		r.tr = newTracer()
		reps = 1
	}
	r.tr.do("workload", func() {
		for rep := 0; rep < reps; rep++ {
			runtime.GC()
			start := time.Now()
			var d string
			r.tr.do("setup", func() {
				r.inst = w.new(o.seed, r.tr)
				r.tr.do("warmup", func() {
					for i := 0; i < w.warmup; i++ {
						r.count(r.inst.step(i, nil))
					}
				})
				d = r.inst.endWarmup()
			})
			r.setups = append(r.setups, time.Since(start).Seconds())
			if rep > 0 && d != r.digest {
				r.problem("sim_digest differs between two set-ups of seed %d in one process: %s vs %s", o.seed, r.digest, d)
			}
			r.digest = d
		}
		if want, ok := gold[fmt.Sprint(o.seed)][w.name]; ok && want != r.digest {
			r.problem("sim_digest %s does not match golden %s: simulated behaviour changed", r.digest, want)
		}
		r.measure()
	})
	r.wall = time.Since(wallStart)
	if r.tr != nil {
		r.layers = layerMetrics(r)
		if path, err := r.tr.rec.write(o.outDir, w.name, o.seed); err != nil {
			r.problem("%v", err)
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
	}
	return r
}

func (r *run) count(failed int) {
	r.attempted += r.w.batch
	r.failed += failed
}

func (r *run) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// measure runs the timed section: steps until the clock (or the fixed
// step count) runs out, one wall-time sample per step.
func (r *run) measure() {
	w, o := r.w, r.o
	budget := time.Duration(o.seconds * float64(time.Second))
	r.plain = make([]float64, 0, sampleCap)
	runtime.GC()
	runtime.ReadMemStats(&r.ms0)
	start := time.Now()
	for i := 0; ; i++ {
		tr := r.tr
		if (i/traceChunk)%2 == 1 {
			tr = nil // the traced run alternates, so both cadences see the same machine state
		}
		t0 := time.Now()
		tr.openStep(i, t0)
		failed := r.inst.step(w.warmup+i, tr)
		t1 := time.Now()
		tr.closeStep(t1)
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3 / float64(w.batch)
		if tr != nil {
			r.traced = append(r.traced, us)
		} else {
			r.plain = append(r.plain, us)
		}
		r.count(failed)
		r.timedOps += w.batch
		r.timedFailed += failed
		if o.steps > 0 {
			if i+1 == o.steps {
				break
			}
		} else if t1.Sub(start) >= budget {
			break
		}
	}
	r.elapsed = time.Since(start)
	runtime.ReadMemStats(&r.ms1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.liveBytes = live.HeapAlloc
}

func (r *run) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// endToEndValues computes the end-to-end metrics from the untraced
// samples.
func (r *run) endToEndValues() map[string]float64 {
	s := sortedCopy(r.plain)
	ops := float64(r.timedOps)
	return map[string]float64{
		"setup_s":       percentile(sortedCopy(r.setups), 0.10),
		"us_per_op_p10": percentile(s, 0.10),
		"allocs_per_op": float64(r.ms1.Mallocs-r.ms0.Mallocs) / ops,
		"bytes_per_op":  float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc) / ops,
		"mem_live_mb":   float64(r.liveBytes) / 1e6,
	}
}

// result is the contract's last-line object: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.  A digest problem
// fails every operation of the workload.
func (r *run) result() result {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if len(r.problems) > 0 {
		res.Failed = r.attempted
	}
	defs, vals := endToEnd, map[string]float64(nil)
	if r.tr != nil {
		defs, vals = perLayer, r.layers
	} else {
		vals = r.endToEndValues()
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// report prints every metric by name with its unit, the sample counts
// beside the percentiles, and anything that went wrong.
func (r *run) report(out *os.File, res result) {
	w := r.w
	fmt.Fprintf(out, "## %s seed=%d batch=%d warmup=%d steps=%d ops=%d timed=%.2fs wall=%.2fs sim_digest=%s\n",
		w.name, r.o.seed, w.batch, w.warmup, len(r.plain)+len(r.traced), r.timedOps,
		r.elapsed.Seconds(), r.wall.Seconds(), r.digest)
	if r.o.steps > 0 && (r.elapsed < 5*time.Second || r.elapsed > 30*time.Second) {
		fmt.Fprintf(out, "WARNING: %s timed section ran %.1fs, outside 5–30 s: resize -steps\n", w.name, r.elapsed.Seconds())
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if n == "us_per_op_p10" {
			note = fmt.Sprintf("  (n=%d steps)", len(r.plain))
		}
		fmt.Fprintf(out, "%-36s %16.6g %s%s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, note)
	}
	fmt.Fprintf(out, "%-36s %16d of %d operations\n", "failed", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(out, "PROBLEM: %s: %s\n", w.name, p)
	}
}

// writeGolden recomputes the seed-1 digest of every workload's warm-up.
func writeGolden(path string) error {
	const seed = 1
	digests := map[string]string{}
	for _, w := range workloads {
		inst := w.new(seed, nil)
		for i := 0; i < w.warmup; i++ {
			if failed := inst.step(i, nil); failed != 0 {
				return fmt.Errorf("%s: %d operations failed in warm-up step %d; refusing to bless", w.name, failed, i)
			}
		}
		digests[w.name] = inst.endWarmup()
		fmt.Printf("%-20s %s\n", w.name, digests[w.name])
	}
	b, err := json.MarshalIndent(golden{fmt.Sprint(seed): digests}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding goldens: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing goldens: %w", err)
	}
	return nil
}

// ---- -sets: repeated sets against the bounds ----

// benchSpec is the part of BENCHMARK.json -sets needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSets runs n full sets, each run in a child process of this binary
// (exactly what the acceptance driver does, so heap state never leaks
// between runs), set k on seed+k.  It prints, per workload and
// end-to-end metric, the median, quartiles and interquartile spread,
// and fails if a spread exceeds the metric's bound.
func runSets(o options, n int, specPath string) error {
	if n < 2 {
		return fmt.Errorf("-sets needs at least 2 sets to have a spread")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("reading benchmark definition: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing %s: %w", specPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for k := 0; k < n; k++ {
		for _, w := range spec.Workloads {
			if o.workload != "" && o.workload != w.Name {
				continue
			}
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(o.seed + int64(k)),
				"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "--steps", fmt.Sprint(o.steps)}
			child := exec.Command(self, args...)
			child.Stderr = os.Stderr
			outb, err := child.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", k, w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("set %d, %s: parsing result line: %w", k, w.Name, err)
			}
			if !res.Correct {
				return fmt.Errorf("set %d, %s: outputs incorrect (%d of %d failed)", k, w.Name, res.Failed, res.Attempted)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", k+1, n, w.Name)
		}
	}
	fmt.Printf("%-20s %-14s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	var over []string
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xs := values[w.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			q1, _, q3 := quartiles(xs)
			sp := spread(xs)
			flag := ""
			// The acceptance rule exempts setup_s from the spread test.
			if sp > m.Bound && m.Name != "setup_s" {
				flag = "  OVER"
				over = append(over, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-20s %-14s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%%s\n",
				w.Name, m.Name, q1, median(xs), q3, 100*sp, 100*m.Bound, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}
