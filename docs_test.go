package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a code span that opens with a repo path.
var docPath = regexp.MustCompile("`((?:internal|cmd|tools|examples|bench|results)/[^`\n]*)`")

// TestDocsNamePaths holds the prose documents to the tree: every code
// span outside a fenced block that opens with a repo path names a file
// or directory that exists.  A span may go on after the path (`cmd/experiments
// fig2`), and a glob (`results/fig2_*.csv`) must match something.  A
// span with a <placeholder> names a family of files a run writes, not a
// path, and is not checked.
func TestDocsNamePaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
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
			if fenced {
				continue
			}
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				path := strings.Fields(m[1])[0]
				if strings.Contains(path, "<") {
					continue
				}
				if found, err := filepath.Glob(path); err != nil || len(found) == 0 {
					t.Errorf("%s:%d: `%s` names no file or directory", doc, i+1, m[1])
				}
			}
		}
	}
}
