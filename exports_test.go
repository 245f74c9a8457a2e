package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestExportedNamesHaveReaders holds the exported surface under
// internal/ to what the module reads (DESIGN §14).  Every exported
// top-level func, type, var, const and method declared in a non-test
// file under internal/ needs a reader in a non-test file of internal/,
// cmd/, bench/ or tools/, unless it is a method some interface declares
// (in the module, or String and Error) or its doc comment carries an
// //api: line giving one of the reasons checkAPI accepts.  An //api:
// line on a name that has a reader is stale and fails too, so the list
// only shrinks.
//
// A reader is a use the type checker resolves to the declaration
// (go/types, the standard library imported from source), so a method
// is matched by its receiver type, not by its name.
func TestExportedNamesHaveReaders(t *testing.T) {
	m := scanModule(t, "internal", "cmd", "bench", "tools")
	var bad []string
	for _, d := range m.decls {
		read := m.hasReader(d)
		switch {
		case d.api == "" && !read:
			bad = append(bad, d.at+" "+d.name+": no reader outside _test.go and no //api: line")
		case d.api != "" && read:
			bad = append(bad, d.at+" "+d.name+": //api: line on a name that has a reader")
		case d.api != "":
			if why := m.checkAPI(d); why != "" {
				bad = append(bad, d.at+" "+d.name+": "+why)
			}
		}
	}
	t.Logf("%d exported names under internal/ (%d more are interface methods)", len(m.decls), m.ifaceMethods)
	if len(bad) > 0 {
		t.Errorf("%d exported names under internal/ need a reader or an //api: reason:\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
}

var (
	apiLine  = regexp.MustCompile(`^//api:(\w+)\b`)
	testName = regexp.MustCompile(`\bTest[A-Z]\w*`)
)

const module = "repro"

// exportDecl is one exported top-level name under internal/.
type exportDecl struct {
	pos  token.Pos // of the declaring identifier, the object's Pos
	name string    // Name, or Recv.Name for a method
	at   string    // file:line
	api  string    // the //api: line, or ""
}

// goPkg is one package directory of the module as go/build sees it
// under the default build tags.
type goPkg struct {
	src, tests, xtests []*ast.File
	checked            *types.Package // the non-test files, as importers see it
}

type moduleScan struct {
	t            *testing.T
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*goPkg             // import path -> package
	readers      map[token.Pos]map[string]bool // declaration -> files that use it
	tests        []*ast.File
	ifaceNames   map[string]bool // method names some interface declares
	decls        []*exportDecl
	ifaceMethods int // exported methods exempt as interface methods
}

// scanModule type-checks every package under dirs, skipping testdata,
// with its tests, records which files use each declaration, and
// collects the exported names declared under internal/.
func scanModule(t *testing.T, dirs ...string) *moduleScan {
	t.Helper()
	m := &moduleScan{
		t:          t,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*goPkg{},
		readers:    map[token.Pos]map[string]bool{},
		ifaceNames: map[string]bool{"String": true, "Error": true},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(p, 0)
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			} else if err != nil {
				return err
			}
			g := &goPkg{
				src:    m.parse(p, bp.GoFiles),
				tests:  m.parse(p, bp.TestGoFiles),
				xtests: m.parse(p, bp.XTestGoFiles),
			}
			m.tests = append(append(m.tests, g.tests...), g.xtests...)
			m.pkgs[module+"/"+filepath.ToSlash(p)] = g
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		g := m.pkgs[path]
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
		// A package's own tests see it with its in-package test files;
		// its external tests import that variant, as go test builds it.
		self := g.checked
		if len(g.tests) > 0 {
			files := append(append([]*ast.File(nil), g.src...), g.tests...)
			self = m.check(path, files, m, false)
		}
		if len(g.xtests) > 0 {
			m.check(path+"_test", g.xtests, importerFunc(func(p string) (*types.Package, error) {
				if p == path {
					return self, nil
				}
				return m.Import(p)
			}), false)
		}
		for _, f := range g.src {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, f := range it.Methods.List {
						for _, id := range f.Names {
							m.ifaceNames[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	for _, path := range paths {
		if strings.HasPrefix(path, module+"/internal/") {
			for _, f := range m.pkgs[path].src {
				m.collect(f)
			}
		}
	}
	sort.Slice(m.decls, func(i, j int) bool { return m.decls[i].at < m.decls[j].at })
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Import returns a module package type-checked from its non-test files,
// checking it on first use; anything else comes from the standard
// library's source importer.
func (m *moduleScan) Import(path string) (*types.Package, error) {
	g := m.pkgs[path]
	if g == nil {
		if strings.HasPrefix(path, module+"/") {
			return nil, fmt.Errorf("package %s is outside the scanned directories", path)
		}
		return m.std.Import(path)
	}
	if g.checked == nil {
		g.checked = m.check(path, g.src, m, true)
	}
	return g.checked, nil
}

func (m *moduleScan) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			m.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// check type-checks files as package path and records, for each module
// declaration a file uses, that file.  Type errors fail the scan when
// strict; a test package tolerates them, since its external tests may
// meet the package in both variants.
func (m *moduleScan) check(path string, files []*ast.File, imp types.Importer, strict bool) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	var errs []string
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check(path, m.fset, files, info)
	if strict && len(errs) > 0 {
		m.t.Fatalf("type-checking %s:\n%s", path, strings.Join(errs, "\n"))
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module+"/") {
			continue
		}
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		file := m.fset.Position(id.Pos()).Filename
		if m.readers[obj.Pos()] == nil {
			m.readers[obj.Pos()] = map[string]bool{}
		}
		m.readers[obj.Pos()][file] = true
	}
	return pkg
}

// collect records f's exported top-level names.
func (m *moduleScan) collect(f *ast.File) {
	add := func(id *ast.Ident, recv string, docs ...*ast.CommentGroup) {
		if !id.IsExported() {
			return
		}
		p := m.fset.Position(id.Pos())
		d := &exportDecl{pos: id.Pos(), name: id.Name, at: fmt.Sprintf("%s:%d", p.Filename, p.Line)}
		if recv != "" {
			d.name = recv + "." + id.Name
		}
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				if apiLine.MatchString(c.Text) {
					d.api = c.Text
				}
			}
		}
		m.decls = append(m.decls, d)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case decl.Recv == nil:
				add(decl.Name, "", decl.Doc)
			case m.ifaceNames[decl.Name.Name]:
				if decl.Name.IsExported() {
					m.ifaceMethods++
				}
			default:
				add(decl.Name, recvName(decl.Recv.List[0].Type), decl.Doc)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "", spec.Doc, decl.Doc)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "", spec.Doc, decl.Doc)
					}
				}
			}
		}
	}
}

// recvName spells a method receiver's base type: T for T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// hasReader reports whether a non-test file uses d.
func (m *moduleScan) hasReader(d *exportDecl) bool {
	for file := range m.readers[d.pos] {
		if !strings.HasSuffix(file, "_test.go") {
			return true
		}
	}
	return false
}

// checkAPI holds d's //api: line, written //api:<reason> <why> (gofmt
// keeps it as a directive), to the closed set of reasons:
//
//   - oracle: a reference that tests compare against;
//   - paper: a mechanism or comparator of the paper, the line naming a
//     test some _test.go declares;
//   - safety: an isolation or hardening check;
//   - harness: a test observation point at least three test files read.
func (m *moduleScan) checkAPI(d *exportDecl) string {
	reason := apiLine.FindStringSubmatch(d.api)[1]
	switch reason {
	case "oracle", "safety":
	case "paper":
		name := testName.FindString(d.api)
		if name == "" {
			return "//api:paper line names no test"
		}
		if !m.declaresTest(name) {
			return "//api:paper line names " + name + ", which no _test.go declares"
		}
	case "harness":
		if n := len(m.readers[d.pos]); n < 3 {
			return fmt.Sprintf("//api:harness name read by %d test files, want at least 3", n)
		}
	default:
		return fmt.Sprintf("//api: reason %q is not one of oracle, paper, safety, harness", reason)
	}
	return ""
}

// declaresTest reports whether some _test.go declares func name.
func (m *moduleScan) declaresTest(name string) bool {
	for _, f := range m.tests {
		for _, decl := range f.Decls {
			if f, ok := decl.(*ast.FuncDecl); ok && f.Recv == nil && f.Name.Name == name {
				return true
			}
		}
	}
	return false
}
