package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a small annotated source file: one gated function with a
// panic call and an allocation under a retired //alloc:allow waiver,
// one gated clean function, and one unannotated function whose escapes
// must be ignored.
const fixture = `package fix

import "fmt"

// hot is gated.
//
//alloc:free
func hot(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("hot: negative %d",
			n))
	}
	//alloc:allow is no directive: this escape is gated like any other
	buf := make([]byte, n)
	return len(buf) + leak(n)
}

//alloc:free
func clean(n int) int { return n * 2 }

// cold is not gated: its escapes are invisible to the gate.
func cold(n int) *int { return &n }
`

func writeFixture(t *testing.T) (dir string, file string) {
	t.Helper()
	dir = t.TempDir()
	file = filepath.Join(dir, "fix.go")
	if err := os.WriteFile(file, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.ToSlash(file)
}

func TestCollectAnnotations(t *testing.T) {
	dir, file := writeFixture(t)
	anns, err := collectAnnotations([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 2 {
		t.Fatalf("annotations = %d, want 2: %+v", len(anns), anns)
	}
	if anns[0].key != file+":clean" || anns[1].key != file+":hot" {
		t.Fatalf("keys = %q, %q", anns[0].key, anns[1].key)
	}
	hot := anns[1]
	if len(hot.panicSpans) != 1 {
		t.Fatalf("panic spans = %v, want one", hot.panicSpans)
	}
	// The panic's Sprintf spans two lines; both must be covered.
	if s := hot.panicSpans[0]; s[1] != s[0]+1 {
		t.Fatalf("panic span %v does not cover the continuation line", s)
	}
}

func TestAttribute(t *testing.T) {
	dir, file := writeFixture(t)
	anns, err := collectAnnotations([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	hot := anns[1]
	panicLine := hot.panicSpans[0][1] // Sprintf continuation inside panic
	makeLine := hot.start + 6         // the make([]byte, n) line
	out := "" +
		diag(file, panicLine, "n escapes to heap") + // panic path: exempt
		diag(file, makeLine, "make([]byte, n) escapes to heap") + // no waiver
		diag(file, hot.start+8, "moved to heap: x") + // real regression
		diag(file, hot.end+5, "&n escapes to heap") + // outside any gated span
		diag(file, hot.start+8, "n does not escape") + // not an escape
		diag(file, hot.start+8, "leaking param: n") // not an allocation

	state := attribute(anns, out)
	if got := state[file+":hot"]; len(got) != 2 || got[0] != "make([]byte, n) escapes to heap" || got[1] != "moved to heap: x" {
		t.Fatalf("hot escapes = %v, want the formerly waived make and the real regression", got)
	}
	if got := state[file+":clean"]; len(got) != 0 {
		t.Fatalf("clean escapes = %v, want none", got)
	}
}

func diag(file string, line int, msg string) string {
	return file + ":" + itoa(line) + ":1: " + msg + "\n"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// The golden round-trip: a written baseline reads back identical, a
// matching state passes the gate, and every drift direction fails it.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ALLOCGATE.json")
	state := map[string][]string{
		"a.go:f": {},
		"b.go:g": {"moved to heap: x"},
	}
	if err := writeBaseline(path, state); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if probs := gate(state, got); len(probs) != 0 {
		t.Fatalf("round-tripped baseline drifted: %v", probs)
	}

	// A new escape in a gated function fails.
	worse := map[string][]string{"a.go:f": {"moved to heap: y"}, "b.go:g": {"moved to heap: x"}}
	if probs := gate(worse, got); len(probs) != 1 {
		t.Fatalf("regression not caught: %v", probs)
	}
	// A fixed escape also fails (forces a conscious baseline refresh).
	better := map[string][]string{"a.go:f": {}, "b.go:g": {}}
	if probs := gate(better, got); len(probs) != 1 {
		t.Fatalf("improvement drift not caught: %v", probs)
	}
	// A new annotation fails until the baseline is regenerated.
	grown := map[string][]string{"a.go:f": {}, "b.go:g": {"moved to heap: x"}, "c.go:h": {}}
	if probs := gate(grown, got); len(probs) != 1 {
		t.Fatalf("new annotation drift not caught: %v", probs)
	}
	// A removed annotation fails too.
	shrunk := map[string][]string{"a.go:f": {}}
	if probs := gate(shrunk, got); len(probs) != 1 {
		t.Fatalf("removed annotation drift not caught: %v", probs)
	}
}

// End to end against the real repository: the committed baseline must
// match the current tree (this is exactly what CI runs), and every
// gated function in it must be escape-free — the repo's own
// acceptance bar.
func TestRepoBaselineCleanAndCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the repo with -gcflags=-m")
	}
	// The Makefile's ALLOC_PKGS, run from the repo root for stable keys.
	pkgs := []string{
		"./internal/core", "./internal/ring", "./internal/tcpu", "./internal/netsim",
		"./internal/asic", "./internal/endhost", "./internal/reflex", "./internal/obs",
		"./internal/accounting", "./internal/l2",
		"./internal/mem", "./internal/guard", "./internal/tcam",
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	anns, err := collectAnnotations(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) == 0 {
		t.Fatal("no //alloc:free annotations found in the repo")
	}
	out, err := buildDiagnostics(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	state := attribute(anns, out)
	for key, msgs := range state {
		if len(msgs) != 0 {
			t.Errorf("%s: gated function allocates: %v", key, msgs)
		}
	}
	baseline, err := readBaseline("ALLOCGATE.json")
	if err != nil {
		t.Fatal(err)
	}
	if probs := gate(state, baseline); len(probs) != 0 {
		t.Errorf("tree drifted from committed baseline: %v", probs)
	}
}

// Baseline keys name the receiver without its type parameters, so a
// gated method of a generic type gets a key as stable as any other.
func TestFuncNameReceivers(t *testing.T) {
	const src = `package p
type T struct{}
type G[A any] struct{}
type H[A, B any] struct{}
func plain() {}
func (T) val() {}
func (*T) ptr() {}
func (*G[A]) gen() {}
func (H[A, B]) gen2() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plain", "T.val", "(*T).ptr", "(*G).gen", "H.gen2"}
	var got []string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			got = append(got, funcName(fd))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("funcName = %v, want %v", got, want)
	}
}

// inlineFixture pins two functions inlinable: small is, big makes two
// calls the compiler will not inline, which prices it past the budget.
// free is gated for escapes only, so its inlinability is not checked.
const inlineFixture = `package fix

import "fmt"

//alloc:inline
func small(n int) int { return n + 1 }

// big is pinned but is not inlinable.
//
//alloc:inline
func big(n int) string {
	return fmt.Sprint(n) + fmt.Sprint(n+1)
}

//alloc:free
func free(n int) string { return fmt.Sprint(n) + fmt.Sprint(n+1) }
`

// The inline pin against the real compiler: the gate passes an
// inlinable pinned function and fails a pinned one that is not,
// quoting the compiler's reason.
func TestInlinePins(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fix\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "fix"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fix", "fix.go"), []byte(inlineFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	pkgs := []string{"./fix"}
	anns, err := collectAnnotations(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 3 || inlinePins(anns) != 2 {
		t.Fatalf("annotations = %+v, want three with two inline pins", anns)
	}
	out, err := buildDiagnostics(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	problems := checkInline(anns, out)
	if len(problems) != 1 {
		t.Fatalf("problems = %q, want exactly big's", problems)
	}
	if p := problems[0]; !strings.HasPrefix(p, "fix/fix.go:big: //alloc:inline but not inlinable: ") ||
		!strings.Contains(p, "exceeds budget") {
		t.Fatalf("problem = %q, want big named with the compiler's budget reason", p)
	}
}

// A "can inline" report for a closure declared on the pinned
// function's line does not stand in for the function itself.
func TestInlinePinMatchesName(t *testing.T) {
	anns := []annotation{{key: "p/a.go:f", name: "f", file: "p/a.go", start: 3, inline: true}}
	out := "p/a.go:3:6: cannot inline f: function too complex: cost 90 exceeds budget 80\n" +
		"p/a.go:3:20: can inline f.func1 with cost 2 as: func() {  }\n"
	problems := checkInline(anns, out)
	if len(problems) != 1 || !strings.HasSuffix(problems[0], "function too complex: cost 90 exceeds budget 80") {
		t.Fatalf("problems = %q", problems)
	}
	if problems := checkInline(anns, "p/a.go:3:6: can inline f with cost 4 as: func() {  }\n"); len(problems) != 0 {
		t.Fatalf("inlinable pin reported: %q", problems)
	}
}
