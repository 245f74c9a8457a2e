package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// proseDocs are the documents a reader takes the tree's word from.
var proseDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"}

// scanProse calls fn with every line of the prose documents that lies
// outside a fenced block, numbered from 1.
func scanProse(t *testing.T, fn func(doc string, n int, line string)) {
	t.Helper()
	for _, doc := range proseDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				fn(doc, i+1, line)
			}
		}
	}
}

// docPath matches a code span that opens with a repo path.
var docPath = regexp.MustCompile("`((?:internal|cmd|tools|examples|bench|results)/[^`\n]*)`")

// TestDocsNamePaths holds the prose documents to the tree: every code
// span outside a fenced block that opens with a repo path names a file
// or directory that exists.  A span may go on after the path (`cmd/experiments
// fig2`), and a glob (`results/fig2_*.csv`) must match something.  A
// span with a <placeholder> names a family of files a run writes, not a
// path, and is not checked.
func TestDocsNamePaths(t *testing.T) {
	scanProse(t, func(doc string, n int, line string) {
		for _, m := range docPath.FindAllStringSubmatch(line, -1) {
			path := strings.Fields(m[1])[0]
			if strings.Contains(path, "<") {
				continue
			}
			if found, err := filepath.Glob(path); err != nil || len(found) == 0 {
				t.Errorf("%s:%d: `%s` names no file or directory", doc, n, m[1])
			}
		}
	})
}

var (
	// codeSpan matches one backticked span on a line.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// docTestName matches a test or fuzz target's name inside a span.
	docTestName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	// testDecl matches a test or fuzz target's declaration.
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
)

// declaredTests maps every test and fuzz target a _test.go file in the
// module declares to the set of package directories declaring it ("."
// for the root).
func declaredTests(t *testing.T) map[string]map[string]bool {
	t.Helper()
	declared := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			if declared[m[1]] == nil {
				declared[m[1]] = map[string]bool{}
			}
			declared[m[1]][filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// TestDocsNameTests holds the prose documents to the test suite: every
// test or fuzz target a code span outside a fenced block names
// (`TestSmoke`, `rcp.TestStarRunBudgets`, `go test -run TestX`) is
// declared by some _test.go file in the module.
func TestDocsNameTests(t *testing.T) {
	declared := declaredTests(t)
	scanProse(t, func(doc string, n int, line string) {
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, name := range docTestName.FindAllString(span, -1) {
				if declared[name] == nil {
					t.Errorf("%s:%d: %s names %s, which no _test.go declares", doc, n, span, name)
				}
			}
		}
	})
}

var (
	// docMakeTarget matches a make invocation inside a span.
	docMakeTarget = regexp.MustCompile(`\bmake ([A-Za-z0-9_-]+)`)
	// makeRule matches a rule's target list in the Makefile.
	makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9_. -]+):`)
)

// TestDocsNameMakeTargets holds the prose documents to the Makefile:
// every `make <target>` a code span outside a fenced block names is a
// rule the Makefile declares.  bench/README.md is left out: it belongs
// to the benchmark, whose text changes only with the benchmark.
func TestDocsNameMakeTargets(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(src), -1) {
		for _, name := range strings.Fields(m[1]) {
			targets[name] = true
		}
	}
	scanProse(t, func(doc string, n int, line string) {
		if doc == "bench/README.md" {
			return
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, m := range docMakeTarget.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: %s names make target %q, which the Makefile does not declare", doc, n, span, m[1])
				}
			}
		}
	})
}

var (
	// makeTestPattern matches a go test -run or -fuzz pattern, quoted
	// or bare.
	makeTestPattern = regexp.MustCompile(`-(?:run|fuzz)[= ]('[^']*'|[^\s']+)`)
	// plainTestName matches one alternative of a pattern that names a
	// single test or fuzz target, optionally anchored.
	plainTestName = regexp.MustCompile(`^\^?((?:Test|Fuzz)\w*)\$?$`)
)

// TestMakefileNamesTests holds the Makefile to the test suite: every
// alternative of a -run or -fuzz pattern names a test or fuzz target
// that a _test.go file of a package the same line tests declares.  A
// pattern that matches nothing makes go test print "no tests to run"
// and exit 0, so a stale one would quietly empty its step.
func TestMakefileNamesTests(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredTests(t)
	patterns := 0
	for i, line := range strings.Split(string(src), "\n") {
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, filepath.Clean(f))
			}
		}
		for _, m := range makeTestPattern.FindAllStringSubmatch(line, -1) {
			patterns++
			for _, alt := range strings.Split(strings.Trim(m[1], "'"), "|") {
				name := plainTestName.FindStringSubmatch(alt)
				if name == nil {
					t.Errorf("Makefile:%d: %q is not a plain test name", i+1, alt)
					continue
				}
				found := false
				for _, pkg := range pkgs {
					found = found || declared[name[1]][pkg]
				}
				if !found {
					t.Errorf("Makefile:%d: %s is declared by no _test.go in %v", i+1, name[1], pkgs)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("found no -run or -fuzz pattern in the Makefile")
	}
}
