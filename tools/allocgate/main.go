// Command allocgate is the escape-regression gate: it asserts that
// functions annotated //alloc:free report no heap escapes under the
// compiler's escape analysis (go build -gcflags=-m=2), pinned against a
// committed baseline so regressions fail CI instead of silently
// re-introducing allocations on the fabric hot path.  It also asserts
// that functions annotated //alloc:inline stay inlinable.
//
// Usage:
//
//	allocgate [-write] [-baseline FILE] PKG...
//
// Annotations:
//
//	//alloc:free    (in a function's doc comment)
//	    every escape diagnostic inside the function body is gated.
//	//alloc:inline  (in a function's doc comment)
//	    the compiler must report "can inline" for the function: a gate
//	    whose whole point is to cost its caller one branch must not
//	    grow past the inlining budget into a call.
//
// Diagnostics on lines inside a panic(...) call are exempt
// automatically: fmt argument boxing on a path that aborts the
// simulation is not a hot-path allocation.
//
// The baseline maps each annotated function to its accepted escape
// messages (positions stripped, so unrelated edits don't churn it).
// Check mode fails when the computed state differs from the baseline
// in any way — a new escape, a fixed one, or an annotated function
// added or removed — forcing the diff through a conscious
// `allocgate -write` commit.  Inline pins have no baseline: both modes
// fail while one of them is not inlinable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// annotation is one //alloc:free or //alloc:inline function: where it
// lives, which gates apply and the line spans exempted inside it.
type annotation struct {
	key        string // file.go:(*Recv).Name — the baseline key
	name       string // (*Recv).Name, as the compiler prints it
	file       string // repo-root-relative path
	start, end int    // declaration line span, inclusive
	free       bool   // //alloc:free: escapes gated against the baseline
	inline     bool   // //alloc:inline: must stay inlinable
	panicSpans [][2]int
}

// escapeRe matches the two diagnostic shapes that mean a heap
// allocation: "moved to heap: x" and "expr escapes to heap".  Lines
// like "x does not escape" and "leaking param: p" never match.
// At -m=2 the compiler also explains each escape in lines ending in a
// colon, which escapeRe does not match, and reports inlinability as
// "can inline NAME with cost N as: ..." or "cannot inline NAME: why".
var (
	diagRe   = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*)$`)
	escapeRe = regexp.MustCompile(`(^moved to heap: )|( escapes to heap$)`)
	inlineRe = regexp.MustCompile(`^(can|cannot) inline (\S+?)(:| |$)(.*)$`)
	typeArgs = regexp.MustCompile(`\[[^\]]*\]`)
)

func main() {
	write := flag.Bool("write", false, "rewrite the baseline instead of checking against it")
	baselinePath := flag.String("baseline", "ALLOCGATE.json", "baseline file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: allocgate [-write] [-baseline FILE] PKG...")
		flag.PrintDefaults()
	}
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	anns, err := collectAnnotations(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocgate:", err)
		os.Exit(2)
	}
	if len(anns) == 0 {
		fmt.Fprintln(os.Stderr, "allocgate: no //alloc:free annotations found under", pkgs)
		os.Exit(2)
	}

	out, err := buildDiagnostics(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocgate:", err)
		os.Exit(2)
	}
	state := attribute(anns, out)
	notInlined := checkInline(anns, out)
	for _, p := range notInlined {
		fmt.Println("allocgate:", p)
	}

	if *write {
		if err := writeBaseline(*baselinePath, state); err != nil {
			fmt.Fprintln(os.Stderr, "allocgate:", err)
			os.Exit(2)
		}
		escapes := 0
		for _, msgs := range state {
			escapes += len(msgs)
		}
		fmt.Printf("allocgate: baseline %s written: %d gated function(s), %d accepted escape(s)\n",
			*baselinePath, len(state), escapes)
		if len(notInlined) > 0 {
			fmt.Printf("allocgate: FAIL: %d //alloc:inline function(s) not inlinable\n", len(notInlined))
			os.Exit(1)
		}
		return
	}

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocgate:", err)
		os.Exit(2)
	}
	problems := gate(state, baseline)
	for _, p := range problems {
		fmt.Println("allocgate:", p)
	}
	if len(problems) > 0 {
		fmt.Printf("allocgate: FAIL: %d drift(s) from %s; run `make allocgate-baseline` after auditing\n",
			len(problems), *baselinePath)
	}
	if len(notInlined) > 0 {
		fmt.Printf("allocgate: FAIL: %d //alloc:inline function(s) not inlinable\n", len(notInlined))
	}
	if len(problems) > 0 || len(notInlined) > 0 {
		os.Exit(1)
	}
	fmt.Printf("allocgate: ok: %d gated function(s) match %s, %d inline pin(s) hold\n",
		len(state), *baselinePath, inlinePins(anns))
}

// collectAnnotations parses every non-test Go file under the package
// dirs and returns the //alloc:free and //alloc:inline functions.
func collectAnnotations(pkgs []string) ([]annotation, error) {
	var anns []annotation
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir := strings.TrimPrefix(pkg, "./")
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			rel := filepath.ToSlash(path)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				free, inline := hasDirective(fd.Doc, "//alloc:free"), hasDirective(fd.Doc, "//alloc:inline")
				if !free && !inline {
					continue
				}
				ann := annotation{
					key:    fmt.Sprintf("%s:%s", rel, funcName(fd)),
					name:   funcName(fd),
					file:   rel,
					start:  fset.Position(fd.Pos()).Line,
					end:    fset.Position(fd.End()).Line,
					free:   free,
					inline: inline,
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						ann.panicSpans = append(ann.panicSpans, [2]int{
							fset.Position(call.Pos()).Line,
							fset.Position(call.End()).Line,
						})
					}
					return true
				})
				anns = append(anns, ann)
			}
		}
	}
	sort.Slice(anns, func(i, j int) bool { return anns[i].key < anns[j].key })
	return anns, nil
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

func inlinePins(anns []annotation) int {
	n := 0
	for _, a := range anns {
		if a.inline {
			n++
		}
	}
	return n
}

// funcName renders a FuncDecl as (*Recv).Name / Recv.Name / Name; a
// generic receiver's type parameters are left out (Buf[T] is Buf).
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv, format := fd.Recv.List[0].Type, "%s.%s"
	if star, ok := recv.(*ast.StarExpr); ok {
		recv, format = star.X, "(*%s).%s"
	}
	switch t := recv.(type) {
	case *ast.IndexExpr:
		recv = t.X
	case *ast.IndexListExpr:
		recv = t.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return fmt.Sprintf(format, id.Name, fd.Name.Name)
	}
	return fd.Name.Name
}

// buildDiagnostics runs the compiler's escape analysis and inlining
// report over the packages and returns its raw output.  The Go build
// cache replays these diagnostics on cached builds, so repeat runs stay
// cheap.
func buildDiagnostics(pkgs []string) (string, error) {
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m=2"}, pkgs...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	return string(out), nil
}

// checkInline returns one problem per //alloc:inline function the
// compiler did not report as inlinable, with the compiler's reason when
// it gave one.  A report matches a function by file, declaration line
// and name, so a closure declared on the same line does not stand in
// for it.
func checkInline(anns []annotation, buildOut string) []string {
	can := make(map[string]bool)
	why := make(map[string]string)
	for _, line := range strings.Split(buildOut, "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		im := inlineRe.FindStringSubmatch(m[3])
		if im == nil {
			continue
		}
		at := fmt.Sprintf("%s:%s:%s", filepath.ToSlash(m[1]), m[2], typeArgs.ReplaceAllString(im[2], ""))
		if im[1] == "can" {
			can[at] = true
		} else {
			why[at] = strings.TrimSpace(im[4])
		}
	}
	var problems []string
	for _, a := range anns {
		at := fmt.Sprintf("%s:%d:%s", a.file, a.start, a.name)
		if !a.inline || can[at] {
			continue
		}
		reason := why[at]
		if reason == "" {
			reason = "no inlining report"
		}
		problems = append(problems, fmt.Sprintf("%s: //alloc:inline but not inlinable: %s", a.key, reason))
	}
	sort.Strings(problems)
	return problems
}

// attribute maps each escape diagnostic to the //alloc:free function
// whose body span contains it, skipping panic call sites.  Every
// annotated function gets an entry (empty when clean), so removing an
// annotation is visible as baseline drift.
func attribute(anns []annotation, buildOut string) map[string][]string {
	state := make(map[string][]string, len(anns))
	for _, a := range anns {
		if a.free {
			state[a.key] = []string{}
		}
	}
	for _, line := range strings.Split(buildOut, "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil || !escapeRe.MatchString(m[3]) {
			continue
		}
		file, msg := filepath.ToSlash(m[1]), m[3]
		var ln int
		fmt.Sscanf(m[2], "%d", &ln)
		for i := range anns {
			a := &anns[i]
			if !a.free || a.file != file || ln < a.start || ln > a.end {
				continue
			}
			if inPanicSpan(a, ln) {
				break
			}
			state[a.key] = append(state[a.key], msg)
			break
		}
	}
	for k := range state {
		sort.Strings(state[k])
	}
	return state
}

func inPanicSpan(a *annotation, line int) bool {
	for _, s := range a.panicSpans {
		if line >= s[0] && line <= s[1] {
			return true
		}
	}
	return false
}

// gate compares the computed state against the baseline and returns
// the drift, one problem per line, sorted.
func gate(state, baseline map[string][]string) []string {
	var problems []string
	for key, msgs := range state {
		base, ok := baseline[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: gated function not in baseline (new //alloc:free annotation?)", key))
			continue
		}
		if !equalStrings(msgs, base) {
			problems = append(problems, fmt.Sprintf("%s: escapes changed: baseline %v, now %v", key, base, msgs))
		}
	}
	for key := range baseline {
		if _, ok := state[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: in baseline but no longer annotated //alloc:free", key))
		}
	}
	sort.Strings(problems)
	return problems
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeBaseline(path string, state map[string][]string) error {
	b, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readBaseline(path string) (map[string][]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline %s (run allocgate -write to create it): %w", path, err)
	}
	var state map[string][]string
	if err := json.Unmarshal(b, &state); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return state, nil
}
