// Command size prints how much code each package holds: the lines of
// its non-test Go files that carry something other than blanks and
// comments, one row per package directory under the given roots
// (default internal and cmd), then the total.
//
// Usage:
//
//	size [DIR...]
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal", "cmd"}
	}
	perDir := map[string]int{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n, err := codeLines(path, src)
			perDir[filepath.Dir(path)] += n
			return err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "size:", err)
			os.Exit(1)
		}
	}
	dirs := make([]string, 0, len(perDir))
	total := 0
	for dir, n := range perDir {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	w := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	for _, dir := range dirs {
		fmt.Fprintf(w, "%s\t%d\t\n", filepath.ToSlash(dir), perDir[dir])
	}
	fmt.Fprintf(w, "total\t%d\t\n", total)
	w.Flush()
}

// codeLines counts the lines of src on which a token other than a
// comment sits; a multi-line raw string counts every line it spans.
func codeLines(name string, src []byte) (int, error) {
	file := token.NewFileSet().AddFile(name, -1, len(src))
	var errs scanner.ErrorList
	var s scanner.Scanner
	s.Init(file, src, func(pos token.Position, msg string) { errs.Add(pos, msg) }, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end, not written
		}
		first := file.Line(pos)
		for l := first; l <= first+strings.Count(lit, "\n"); l++ {
			lines[l] = true
		}
	}
	return len(lines), errs.Err()
}
