package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/callgraph"
)

// load typechecks one in-memory package (no imports) and wraps it as an
// analysis.Package so Build can consume it.
func load(t *testing.T, path, src string) *analysis.Package {
	t.Helper()
	return loadWith(t, path, src, nil)
}

// importerFunc resolves imports for loadWith.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadWith is load with imports resolved through imp.
func loadWith(t *testing.T, path, src string, imp types.Importer) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+"/a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	files := []*ast.File{file}
	pkg, info, err := analysis.Typecheck(fset, path, files, imp)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &analysis.Package{Path: path, Fset: fset, Files: files, Types: pkg, TypesInfo: info}
}

const src = `package cg

type Doer interface{ Do() }

type A struct{}
func (A) Do()  { leafA() }

type B struct{}
func (*B) Do() { leafB() }

func leafA() {}
func leafB() {}
func unrelated() {}

func static() { leafA() }

func dynamic(d Doer) { d.Do() }

func chain() { static() }

var hook = func() { leafB() }
`

func build(t *testing.T) *callgraph.Graph {
	t.Helper()
	return callgraph.Build([]*analysis.Package{load(t, "cg", src)})
}

func node(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	n := g.Lookup(name)
	if n == nil {
		var have []string
		for _, f := range g.Funcs() {
			have = append(have, f.Name)
		}
		t.Fatalf("no node %q; have %s", name, strings.Join(have, ", "))
	}
	return n
}

func TestStaticEdges(t *testing.T) {
	g := build(t)
	if !g.Reaches(node(t, g, "cg.static"), node(t, g, "cg.leafA")) {
		t.Error("static() calls leafA() — edge missing")
	}
	if g.Reaches(node(t, g, "cg.static"), node(t, g, "cg.leafB")) {
		t.Error("static() must not reach leafB()")
	}
}

func TestTransitiveReachability(t *testing.T) {
	g := build(t)
	if !g.Reaches(node(t, g, "cg.chain"), node(t, g, "cg.leafA")) {
		t.Error("chain() → static() → leafA() — transitive reachability broken")
	}
	if g.Reaches(node(t, g, "cg.chain"), node(t, g, "cg.unrelated")) {
		t.Error("chain() must not reach unrelated()")
	}
}

func TestInterfaceCHA(t *testing.T) {
	g := build(t)
	dyn := node(t, g, "cg.dynamic")
	// The interface call must fan out to both implementations, value and
	// pointer receiver alike, and on through to their leaves.
	for _, leaf := range []string{"cg.leafA", "cg.leafB"} {
		if !g.Reaches(dyn, node(t, g, leaf)) {
			t.Errorf("dynamic() must reach %s via CHA", leaf)
		}
	}
	if g.Reaches(dyn, node(t, g, "cg.unrelated")) {
		t.Error("dynamic() must not reach unrelated()")
	}
}

func TestInitializerLits(t *testing.T) {
	g := build(t)
	if !g.Reaches(node(t, g, "cg.init"), node(t, g, "cg.leafB")) {
		t.Error("package-level var hook literal must be attributed to cg.init")
	}
}

func TestPathTo(t *testing.T) {
	g := build(t)
	path := g.PathTo(node(t, g, "cg.chain"),
		func(n *callgraph.Node) bool { return n.Name == "cg.leafA" }, nil)
	if len(path) != 2 {
		t.Fatalf("PathTo returned %d edges, want 2 (chain→static→leafA)", len(path))
	}
	if path[0].Callee.Name != "cg.static" || path[1].Callee.Name != "cg.leafA" {
		t.Errorf("path = %s → %s", path[0].Callee.Name, path[1].Callee.Name)
	}
	// A through-predicate that forbids expanding static() must cut the path.
	blocked := g.PathTo(node(t, g, "cg.chain"),
		func(n *callgraph.Node) bool { return n.Name == "cg.leafA" },
		func(n *callgraph.Node) bool { return n.Name != "cg.static" })
	if blocked != nil {
		t.Error("through-predicate must prevent traversal beyond static()")
	}
}

func TestDefinedFlag(t *testing.T) {
	g := build(t)
	if !node(t, g, "cg.leafA").Defined {
		t.Error("leafA is defined in the loaded package")
	}
}

func TestFuncsSorted(t *testing.T) {
	g := build(t)
	funcs := g.Funcs()
	for i := 1; i < len(funcs); i++ {
		if funcs[i-1].Name >= funcs[i].Name {
			t.Fatalf("Funcs() not strictly sorted: %q before %q", funcs[i-1].Name, funcs[i].Name)
		}
	}
}

// TestMethodsByPathAcrossPackages pins interface resolution across the
// loader's split views: the implementing package sees the interface's
// package through a second, separately type-checked copy (as export data
// gives it), so the two hold distinct objects for the same named types.
func TestMethodsByPathAcrossPackages(t *testing.T) {
	const apiSrc = `package api
type ID int
type Doer interface{ Do(id ID, msg []byte) error }
`
	const implSrc = `package impl
import "api"
type T struct{}
func (*T) Do(api.ID, []byte) error { return nil }
type Wrong struct{}
func (Wrong) Do(int, []byte) error { return nil }
`
	api := load(t, "api", apiSrc)
	view := load(t, "api", apiSrc).Types
	impl := loadWith(t, "impl", implSrc, importerFunc(func(string) (*types.Package, error) { return view, nil }))
	iface := api.Types.Scope().Lookup("Doer").Type().Underlying().(*types.Interface)
	got := callgraph.NewImplTable([]*analysis.Package{api, impl}).MethodsByPath(iface, iface.Method(0))
	if len(got) != 1 || got[0].FullName() != "(*impl.T).Do" {
		var names []string
		for _, fn := range got {
			names = append(names, fn.FullName())
		}
		t.Errorf("MethodsByPath(Doer.Do) = %v, want [(*impl.T).Do]", names)
	}
}
