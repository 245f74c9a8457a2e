package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestEveryExperimentRuns executes `experiments all` end to end, with
// CSV emission into a temp dir, so the reproduction harness can never
// silently rot — and holds each CSV to the committed results/ and the
// stdout transcript to experiments_output.txt byte for byte, which
// makes `go test ./...` the oracle for a refactor that must not move an
// artifact (`make results-check` is the same comparison from the
// command line).  The pass runs watched, as under -metrics and -trace:
// equal artifacts then also say watching does not change what is
// simulated, and the span log must hold every event of the run.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	dir := t.TempDir()
	var transcript bytes.Buffer
	out := &output{dir: dir, w: &transcript,
		metrics: obs.NewRegistry(), tracer: obs.NewTracer(spanLogEvents)}
	runAll(out, func(e experiment) {
		t.Run(e.name, func(t *testing.T) {
			if err := e.run(out); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		})
	})
	if out.tracer.Total() == 0 || out.tracer.Dropped() != 0 {
		t.Errorf("span log recorded %d events and overwrote %d; want every event retained",
			out.tracer.Total(), out.tracer.Dropped())
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(transcript.Bytes(), want) {
		t.Errorf("stdout transcript: %d bytes, differs from the committed experiments_output.txt (%d bytes); `make results-check` prints the diff",
			transcript.Len(), len(want))
	}
	// Every experiment must have produced at least one CSV.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < len(experiments) {
		t.Fatalf("only %d CSV files for %d experiments", len(entries), len(experiments))
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".csv" {
			t.Errorf("unexpected artifact %s", ent.Name())
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, differs from the committed results/%s (%d bytes)",
				ent.Name(), len(got), ent.Name(), len(want))
		}
	}
}

// TestUnwritableOutFailsEveryExperiment points -out below a regular
// file: no CSV can be created, and every experiment must say so — a
// results file that was not written is not a successful run.
func TestUnwritableOutFailsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		out := &output{dir: filepath.Join(file, "results"), w: io.Discard}
		if err := e.run(out); err == nil {
			t.Errorf("%s: no error with -out at an uncreatable path", e.name)
		}
	}
}

// TestFCTUnfinishedFlowIsAnError: a flow too large for the 120 s
// horizon has no completion time; the table must refuse to print one
// (it used to read 0 ms / 0.0x) and name the scheme and the size.
func TestFCTUnfinishedFlowIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two minutes of a saturated bottleneck")
	}
	err := fctTable(&output{w: io.Discard}, []uint64{1 << 30})
	if err == nil {
		t.Fatal("a 1 GiB flow on a 10 Mb/s bottleneck reported a completion time")
	}
	for _, want := range []string{"rcpstar", "1073741824"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestNdbOutputReproducible: experiments_output.txt is a committed
// artifact, so an experiment's text must be a pure function of its
// inputs — ndb's per-kind violation counts come out of a map and must
// print in sorted order, identically run over run.
func TestNdbOutputReproducible(t *testing.T) {
	var runs [2]bytes.Buffer
	for i := range runs {
		if err := runNdb(&output{w: &runs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].String() != runs[1].String() {
		t.Fatalf("ndb output differs run over run:\n%s\nvs\n%s", runs[0].String(), runs[1].String())
	}
	_, line, _ := strings.Cut(runs[0].String(), "violation kinds: ")
	line, _, _ = strings.Cut(line, "\n")
	kinds := strings.Fields(line)
	if len(kinds) < 2 || !sort.StringsAreSorted(kinds) {
		t.Fatalf("violation kinds not in sorted order: %q", kinds)
	}
}

func TestExperimentNamesUniqueAndDescribed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.about == "" || e.fn == nil {
			t.Errorf("experiment %q incomplete", e.name)
		}
	}
}

// docExperiment matches a command line of this tool in a document, in
// a code span or after ./cmd/: flags with their values, then the
// experiment's name, or several names joined by '|'.
var docExperiment = regexp.MustCompile("(?:`|cmd/)experiments(?: -[a-z]+ \\S+)* ([a-z0-9]+(?:\\|[a-z0-9]+)*)")

// TestDocsNameExperiments holds README.md and EXPERIMENTS.md to the
// table: every `experiments <name>` they show names an experiment, or
// all.
func TestDocsNameExperiments(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docExperiment.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], "|") {
					found++
					if !known[name] {
						t.Errorf("%s:%d: %q names no experiment", doc, i+1, m[0])
					}
				}
			}
		}
		if found == 0 {
			t.Errorf("%s shows no experiments command", doc)
		}
	}
}
