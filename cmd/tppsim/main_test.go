package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

const probe = `
.mem 6
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
`

func TestRunLineLoaded(t *testing.T) {
	var b strings.Builder
	if err := run("line", 3, true, probe, &b, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ptr=24") {
		t.Fatalf("missing final pointer:\n%s", out)
	}
	for _, want := range []string{"hop 1:", "hop 2:", "hop 3:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// With -load, the first hop shows a queue (second value of hop 1).
	line := out[strings.Index(out, "hop 1:"):]
	line = line[:strings.Index(line, "\n")]
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[3] == "0" {
		t.Fatalf("loaded hop 1 shows no queue: %q", line)
	}
}

func TestRunDumbbell(t *testing.T) {
	var b strings.Builder
	if err := run("dumbbell", 0, false, ".mem 4\nPUSH [Link:RCP-RateRegister]", &b, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The dumbbell initializes rate registers to capacity; the probe
	// crosses two switches.
	if !strings.Contains(b.String(), "ptr=8") {
		t.Fatalf("output:\n%s", b.String())
	}
}

// TestRunClampsHopsToMemory: a stack pointer that claims more frames
// than packet memory holds (here 16 one-word frames in a two-word
// memory) prints only the frames memory has, instead of indexing past
// it.
func TestRunClampsHopsToMemory(t *testing.T) {
	var b strings.Builder
	src := ".mode stack\n.mem 2\n.ptr 64\nLOAD [Switch:SwitchID], [Packet:0]\n"
	if err := run("line", 2, false, src, &b, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ptr=64") || !strings.Contains(out, "hop 2:") || strings.Contains(out, "hop 3:") {
		t.Fatalf("want ptr=64 and exactly two hop lines:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run("ring", 3, false, probe, &b, nil, nil); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run("line", 3, false, "NOT A PROGRAM", &b, nil, nil); err == nil {
		t.Error("bad program accepted")
	}
	for _, n := range []int{0, -1} {
		if err := run("line", n, false, probe, &b, nil, nil); err == nil {
			t.Errorf("line of %d switches accepted", n)
		}
	}
}

// TestRunTelemetry is the acceptance scenario: a probe through a
// 2-switch line with -trace and -metrics produces a reconstructable
// per-hop span log (parser through scheduler, plus link events) and a
// JSONL metrics snapshot carrying queue-depth and TCPU-cycle
// histograms.
func TestRunTelemetry(t *testing.T) {
	var out, metrics, spans strings.Builder
	if err := run("line", 2, true, probe, &out, &metrics, &spans); err != nil {
		t.Fatal(err)
	}

	// The probe journey is printed, with both hops visible.
	txt := out.String()
	if !strings.Contains(txt, "probe journey") {
		t.Fatalf("no journey printed:\n%s", txt)
	}
	journey := txt[strings.Index(txt, "probe journey"):]
	for _, stage := range []string{"parser", "tcpu", "memmgr", "enqueue", "sched", "link-tx", "link-rx"} {
		if strings.Count(journey, " "+stage+" ") < 2 {
			t.Fatalf("journey misses stage %q at both hops:\n%s", stage, journey)
		}
	}

	// The span log is JSONL: every line decodes, and the probe's
	// events reconstruct an ordered per-hop record.
	type spanLine struct {
		At    int64  `json:"at_ns"`
		UID   uint64 `json:"uid"`
		Node  uint32 `json:"node"`
		Stage string `json:"stage"`
	}
	var probeUID uint64
	var events []spanLine
	for _, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
		var ev spanLine
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Stage == "tcpu" {
			probeUID = ev.UID
		}
	}
	if probeUID == 0 {
		t.Fatal("no TCPU span in the log")
	}
	var hops []uint32
	lastAt := int64(-1)
	for _, ev := range events {
		if ev.UID != probeUID {
			continue
		}
		if ev.At < lastAt {
			t.Fatalf("span log out of order at %+v", ev)
		}
		lastAt = ev.At
		if ev.Stage == "parser" {
			hops = append(hops, ev.Node)
		}
	}
	if len(hops) != 2 || hops[0] == hops[1] {
		t.Fatalf("probe crossed switches %v, want 2 distinct hops", hops)
	}

	// The metrics snapshot carries the two tentpole histograms with
	// observations in them.
	type metricLine struct {
		Name  string `json:"name"`
		Kind  string `json:"kind"`
		Count uint64 `json:"count"`
		Value int64  `json:"value"`
	}
	found := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(metrics.String()), "\n") {
		var m metricLine
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		if strings.HasSuffix(m.Name, "queue_depth_bytes") && m.Count > 0 {
			found["queue_depth"] = true
		}
		if strings.HasSuffix(m.Name, "tcpu_cycles") && m.Count > 0 {
			found["tcpu_cycles"] = true
		}
		// The engine's and the packet pool's counts are counter rows,
		// pulled at snapshot; the pool's may read 0 (a 2-switch line
		// never floods over more than one egress).
		if strings.HasPrefix(m.Name, "netsim/") && m.Kind == "counter" &&
			(m.Value > 0 || strings.HasPrefix(m.Name, "netsim/pool_")) {
			found[m.Name] = true
		}
		// The watcher about itself: every recorded span was exported.
		switch {
		case m.Name == "obs/spans_total" && m.Kind == "gauge" && m.Value == int64(len(events)):
			found[m.Name] = true
		case m.Name == "obs/spans_dropped" && m.Kind == "gauge" && m.Value == 0:
			found[m.Name] = true
		}
	}
	if !found["queue_depth"] || !found["tcpu_cycles"] {
		t.Fatalf("snapshot misses histograms (found %v):\n%s", found, metrics.String())
	}
	// ... and the engine's and the span log's self-metrics.
	// tppsim's links have propagation delay and -load queues a burst, so
	// some sends end with a frame waiting (a wake-up asked) and most do
	// not; the lone probe has no deadline, so no timer arm is discarded.
	for _, name := range []string{"netsim/events_executed", "netsim/heap_peak", "netsim/pending_peak",
		"netsim/link_sends", "netsim/wakeups_asked", "obs/spans_total", "obs/spans_dropped",
		"netsim/pool_issued", "netsim/pool_recycled", "netsim/pool_adopted", "netsim/pool_allocated"} {
		if !found[name] {
			t.Fatalf("snapshot misses row %s:\n%s", name, metrics.String())
		}
	}
}

// TestExportSpansAnnouncesOverflow: a span log that wrapped is exported
// with a notice on stderr — how many events were overwritten and where
// the retained ones start — and with the loss in the metrics; a whole
// log is exported without a word.
func TestExportSpansAnnouncesOverflow(t *testing.T) {
	export := func(capacity, events int) (spans, stderr string, reg *obs.Registry) {
		tr := obs.NewTracer(capacity)
		for i := 0; i < events; i++ {
			tr.Record(obs.SpanEvent{At: int64(100 + i), UID: 1, Stage: obs.StageParser})
		}
		reg = obs.NewRegistry()
		var sb, eb strings.Builder
		if err := exportSpans(tr, reg, &sb, &eb); err != nil {
			t.Fatal(err)
		}
		return sb.String(), eb.String(), reg
	}

	spans, stderr, reg := export(4, 6)
	if strings.Count(spans, "\n") != 4 || !strings.HasPrefix(spans, `{"at_ns":102,`) {
		t.Fatalf("exported spans:\n%s", spans)
	}
	if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "2 of 6 events overwritten") ||
		!strings.Contains(stderr, "at_ns=102") {
		t.Fatalf("overflow notice: %q", stderr)
	}
	if total, dropped := reg.Gauge("obs/spans_total").Value(), reg.Gauge("obs/spans_dropped").Value(); total != 6 || dropped != 2 {
		t.Fatalf("gauges total=%d dropped=%d, want 6 and 2", total, dropped)
	}

	if _, stderr, reg := export(8, 6); stderr != "" || reg.Gauge("obs/spans_dropped").Value() != 0 {
		t.Fatalf("whole log announced a loss: %q", stderr)
	}
}

// TestQuickStartMatchesREADME runs the README's quick-start program as
// its `tppsim -load probe.tpp` line does (a 3-switch line behind a
// burst): the transcript the README shows, up to its "...", opens what
// tppsim prints.
func TestQuickStartMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	between := func(from, to string) string {
		_, rest, ok := strings.Cut(string(readme), from)
		if !ok {
			t.Fatalf("README has no %q", from)
		}
		body, _, _ := strings.Cut(rest, to)
		return body
	}
	src := between("$ cat > probe.tpp <<'EOF'\n", "EOF\n")
	shown := between("$ go run ./cmd/tppsim -load probe.tpp", "...\n")
	_, shown, _ = strings.Cut(shown, "\n") // the rest of the command line
	if !strings.Contains(shown, "hop 1:") {
		t.Fatalf("README shows no hop lines:\n%s", shown)
	}

	var b strings.Builder
	if err := run("line", 3, true, src, &b, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), shown) {
		t.Errorf("tppsim prints:\n%s\nREADME shows:\n%s", b.String(), shown)
	}
}
