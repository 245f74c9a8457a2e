package analyzers

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the `// want "substring"` expectation comments in the
// poollife testdata fixtures.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// collectWants maps file:line to the expected finding substrings
// declared in the fixture sources.
func collectWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// The want-comment suite: every finding must land on a line annotated
// with a matching `// want` comment, and every want comment must be
// satisfied by exactly one finding.  The fixture covers each rule's
// positive shape (bad.go), the legal shapes (clean.go, no wants) and
// the //lint:allow escape hatch (suppressed.go, no wants).
func TestPoolLifeWantComments(t *testing.T) {
	dir := "testdata/poollife"
	fs, err := Dir(dir, PoolLife())
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, dir)

	matched := make(map[string]int)
	for _, f := range fs {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		ws := wants[key]
		ok := false
		for _, w := range ws {
			if strings.Contains(f.Msg, w) {
				ok = true
				matched[key]++
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s: %s", key, f.Msg)
		}
	}
	for key, ws := range wants {
		if matched[key] != len(ws) {
			t.Errorf("%s: want %d finding(s) %q, matched %d", key, len(ws), ws, matched[key])
		}
	}
}

// Findings must be deterministic and position-sorted: two runs over
// the same fixture agree exactly (the linter gates CI, so flapping
// output would make failures undiagnosable).
func TestPoolLifeDeterministic(t *testing.T) {
	dir := "testdata/poollife"
	a, err := Dir(dir, PoolLife())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dir(dir, PoolLife())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("runs disagree: %d vs %d findings", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("finding %d differs between runs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Pos.Filename > a[i].Pos.Filename ||
			(a[i-1].Pos.Filename == a[i].Pos.Filename && a[i-1].Pos.Line > a[i].Pos.Line) {
			t.Fatalf("findings unsorted: %v before %v", a[i-1], a[i])
		}
	}
}

// The acceptance fixture: a copy of internal/asic with one
// pool-lifecycle violation added must fail the lint, and the pristine
// copy must pass — the analyzer works on real production code with
// stubbed imports, not just toy fixtures.
func TestAsicWithPoolLeakFails(t *testing.T) {
	src := "../../internal/asic"
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
	fs, err := Dir(dst, PoolLife())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("pristine asic copy flagged: %v", fs)
	}

	tainted := `package asic

import "repro/internal/core"

// leakPooled retains a pooled clone and then touches a recycled one.
func leakPooled(p *core.Packet, dst *[]*core.Packet) int {
	c := p.ClonePooled()
	*dst = append(*dst, c)
	c.Recycle()
	return c.WireLen()
}
`
	if err := os.WriteFile(filepath.Join(dst, "zz_tainted.go"), []byte(tainted), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err = Dir(dst, PoolLife())
	if err != nil {
		t.Fatal(err)
	}
	var appended, used bool
	for _, f := range fs {
		if !strings.Contains(f.Pos.Filename, "zz_tainted.go") {
			t.Errorf("finding attributed to wrong file: %v", f)
		}
		if strings.Contains(f.Msg, "appended to a slice") {
			appended = true
		}
		if strings.Contains(f.Msg, "use of c after Recycle") {
			used = true
		}
	}
	if !appended || !used {
		t.Fatalf("tainted asic not fully flagged (append=%v use=%v): %v", appended, used, fs)
	}
}

// The pool-lifecycle invariant holds on the packages that actually
// handle pooled packets; a regression here is a lifecycle bug the
// pooldebug soak would eventually hit at runtime.
func TestPoolLifeRealPackagesClean(t *testing.T) {
	for _, dir := range []string{
		"../../internal/core",
		"../../internal/netsim",
		"../../internal/asic",
		"../../internal/endhost",
		"../../internal/inband",
		"../../internal/fabric",
		"../../internal/reflex",
		"../../internal/rcp",
	} {
		fs, err := Dir(dir, PoolLife())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			t.Errorf("%s: %s", dir, f)
		}
	}
}
