package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedNamesHaveReaders holds the exported surface under
// internal/ to what the module reads (DESIGN §14).  Every exported
// top-level func, type, var, const and method declared in a non-test
// file under internal/ needs a reader in a non-test file of internal/,
// cmd/, bench/, examples/ or tools/, unless it is a method some
// interface declares (in the module, or String and Error) or its doc
// comment carries an //api: line giving one of the reasons checkAPI
// accepts.  An //api: line on a name that has a reader is stale and
// fails too, so the list only shrinks.
//
// The scan is syntactic (go/parser, no type checking).  In its own
// package a plain identifier reads a name; elsewhere a selector on an
// import of its package does; a method is read by any selector of its
// name, so a method that shares its name with a live one is not seen.
func TestExportedNamesHaveReaders(t *testing.T) {
	m := scanModule(t, "internal", "cmd", "bench", "examples", "tools")
	var bad []string
	for _, d := range m.decls {
		read := m.hasReader(d)
		switch {
		case d.api == "" && !read:
			bad = append(bad, d.pos+" "+d.name+": no reader outside _test.go and no //api: line")
		case d.api != "" && read:
			bad = append(bad, d.pos+" "+d.name+": //api: line on a name that has a reader")
		case d.api != "":
			if why := m.checkAPI(d); why != "" {
				bad = append(bad, d.pos+" "+d.name+": "+why)
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

// exportDecl is one exported top-level name under internal/.
type exportDecl struct {
	pkg    string // import path of the declaring package
	name   string // Name, or Recv.Name for a method
	ident  string // the identifier a reader spells
	method bool
	pos    string // file:line
	api    string // the //api: line, or ""
}

// goFile is one parsed file and what its import names resolve to.
type goFile struct {
	pkg     string // import path of its directory
	name    string // package clause
	ast     *ast.File
	imports map[string]string // local name -> import path
}

type moduleScan struct {
	fset         *token.FileSet
	src, tests   []*goFile
	pkgNames     map[string]string // import path -> package name
	ifaceNames   map[string]bool   // method names some interface declares
	decls        []*exportDecl
	ifaceMethods int // exported methods exempt as interface methods
}

// scanModule parses every .go file under dirs, skipping testdata, and
// collects the exported names declared under internal/.
func scanModule(t *testing.T, dirs ...string) *moduleScan {
	t.Helper()
	m := &moduleScan{
		fset:       token.NewFileSet(),
		pkgNames:   map[string]string{},
		ifaceNames: map[string]bool{"String": true, "Error": true},
	}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(p, ".go") {
				if err == nil && e.IsDir() && e.Name() == "testdata" {
					return filepath.SkipDir
				}
				return err
			}
			f, err := parser.ParseFile(m.fset, p, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			g := &goFile{pkg: "repro/" + filepath.ToSlash(filepath.Dir(p)), name: f.Name.Name, ast: f}
			if strings.HasSuffix(p, "_test.go") {
				m.tests = append(m.tests, g)
			} else {
				m.src = append(m.src, g)
				m.pkgNames[g.pkg] = g.name
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range append(append([]*goFile(nil), m.src...), m.tests...) {
		g.imports = map[string]string{}
		for _, im := range g.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := m.pkgNames[p]
			if local == "" {
				local = path.Base(p)
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			g.imports[local] = p
		}
	}
	for _, g := range m.src {
		ast.Inspect(g.ast, func(n ast.Node) bool {
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
	for _, g := range m.src {
		if strings.HasPrefix(g.pkg, "repro/internal/") {
			m.collect(g)
		}
	}
	sort.Slice(m.decls, func(i, j int) bool { return m.decls[i].pos < m.decls[j].pos })
	return m
}

// collect records g's exported top-level names.
func (m *moduleScan) collect(g *goFile) {
	add := func(id *ast.Ident, recv string, docs ...*ast.CommentGroup) {
		if !id.IsExported() {
			return
		}
		p := m.fset.Position(id.Pos())
		d := &exportDecl{pkg: g.pkg, name: id.Name, ident: id.Name, method: recv != "",
			pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)}
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
	for _, decl := range g.ast.Decls {
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

// hasReader reports whether a non-test file reads d.
func (m *moduleScan) hasReader(d *exportDecl) bool {
	for _, g := range m.src {
		if m.reads(g, d) {
			return true
		}
	}
	return false
}

// reads reports whether file g refers to d anywhere but where a name is
// declared.
func (m *moduleScan) reads(g *goFile, d *exportDecl) bool {
	local := g.pkg == d.pkg && g.name == m.pkgNames[d.pkg]
	found := false
	var walk func(n ast.Node) bool
	each := func(n ast.Node) { ast.Inspect(n, walk) }
	walk = func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == d.ident {
				if x, ok := n.X.(*ast.Ident); d.method || ok && !local && g.imports[x.Name] == d.pkg {
					found = true
					return false
				}
			}
			each(n.X) // n.Sel is a field or method of n.X, never d
			return false
		case *ast.FuncDecl: // not its name
			if n.Recv != nil {
				each(n.Recv)
			}
			each(n.Type)
			if n.Body != nil {
				each(n.Body)
			}
			return false
		case *ast.Field: // not its names
			each(n.Type)
			return false
		case *ast.TypeSpec: // not its name
			if n.TypeParams != nil {
				each(n.TypeParams)
			}
			each(n.Type)
			return false
		case *ast.ValueSpec: // not its names
			if n.Type != nil {
				each(n.Type)
			}
			for _, v := range n.Values {
				each(v)
			}
			return false
		case *ast.Ident:
			found = local && !d.method && n.Name == d.ident
		}
		return true
	}
	for _, decl := range g.ast.Decls {
		each(decl)
	}
	return found
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
		n := 0
		for _, g := range m.tests {
			if m.reads(g, d) {
				n++
			}
		}
		if n < 3 {
			return fmt.Sprintf("//api:harness name read by %d test files, want at least 3", n)
		}
	default:
		return fmt.Sprintf("//api: reason %q is not one of oracle, paper, safety, harness", reason)
	}
	return ""
}

// declaresTest reports whether some _test.go declares func name.
func (m *moduleScan) declaresTest(name string) bool {
	for _, g := range m.tests {
		for _, decl := range g.ast.Decls {
			if f, ok := decl.(*ast.FuncDecl); ok && f.Recv == nil && f.Name.Name == name {
				return true
			}
		}
	}
	return false
}
