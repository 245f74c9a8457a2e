package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes every registered experiment end to
// end, with CSV emission into a temp dir, so the reproduction harness
// can never silently rot.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	dir := t.TempDir()
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			out := &output{dir: dir, w: io.Discard}
			if err := e.run(out); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		})
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
		info, _ := ent.Info()
		if info.Size() == 0 {
			t.Errorf("empty CSV %s", ent.Name())
		}
		if filepath.Ext(ent.Name()) != ".csv" {
			t.Errorf("unexpected artifact %s", ent.Name())
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
		if e.about == "" || e.run == nil {
			t.Errorf("experiment %q incomplete", e.name)
		}
	}
}
