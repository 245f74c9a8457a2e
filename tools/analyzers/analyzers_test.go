package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func findingsFor(t *testing.T, dir string) []Finding {
	t.Helper()
	fs, err := Dir(dir, Determinism())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func count(fs []Finding, analyzer string) int {
	n := 0
	for _, f := range fs {
		if f.Analyzer == analyzer {
			n++
		}
	}
	return n
}

func TestBadFixtureFlagged(t *testing.T) {
	fs := findingsFor(t, "testdata/bad")
	if got := count(fs, "notime"); got != 2 {
		t.Errorf("notime findings = %d, want 2: %v", got, fs)
	}
	if got := count(fs, "norand"); got != 2 {
		t.Errorf("norand findings = %d, want 2: %v", got, fs)
	}
	if got := count(fs, "maporder"); got != 1 {
		t.Errorf("maporder findings = %d, want 1: %v", got, fs)
	}
	// Findings come back sorted by position.
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Pos.Line > fs[i].Pos.Line {
			t.Fatalf("findings unsorted: %v", fs)
		}
	}
}

func TestCleanFixtureSuppressed(t *testing.T) {
	if fs := findingsFor(t, "testdata/clean"); len(fs) != 0 {
		t.Fatalf("clean fixture flagged: %v", fs)
	}
}

func TestAliasResolution(t *testing.T) {
	fs := findingsFor(t, "testdata/aliased")
	if got := count(fs, "notime"); got != 1 {
		t.Fatalf("aliased time import: notime findings = %d, want 1: %v", got, fs)
	}
}

// The determinism invariant holds on the packages whose behavior the
// repeatability tests depend on; a regression here is a real bug, not a
// style nit.
func TestRealPackagesClean(t *testing.T) {
	for _, dir := range []string{
		"../../internal/netsim",
		"../../internal/asic",
		"../../internal/tcpu",
		"../../internal/faults",
		"../../internal/guard",
		"../../internal/core",
		"../../internal/endhost",
		"../../internal/inband",
		"../../internal/fabric",
		"../../internal/fabric/scenario",
		"../../internal/fabric/yamlite",
		"../../internal/chaos",
	} {
		if fs := findingsFor(t, dir); len(fs) != 0 {
			t.Errorf("%s: %v", dir, fs)
		}
	}
}

// The acceptance fixture from the issue: a copy of internal/netsim with
// one time.Now() call added must fail the lint, and the pristine copy
// must pass — the analyzer works on real production code, not just toy
// fixtures.
func TestNetsimWithWallClockFails(t *testing.T) {
	src := "../../internal/netsim"
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if fs := findingsFor(t, dst); len(fs) != 0 {
		t.Fatalf("pristine netsim copy flagged: %v", fs)
	}

	tainted := `package netsim

import "time"

// wallClock sneaks real time into the simulator.
func wallClock() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(dst, "zz_tainted.go"), []byte(tainted), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := findingsFor(t, dst)
	if count(fs, "notime") != 1 {
		t.Fatalf("tainted netsim not flagged: %v", fs)
	}
	if !strings.Contains(fs[0].Pos.Filename, "zz_tainted.go") {
		t.Fatalf("finding attributed to wrong file: %v", fs[0])
	}
}
