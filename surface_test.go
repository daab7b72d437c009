package hth

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the internal functions and methods that only
// tests in another package read, each with the test that needs it.
// Keys are "pkg.Func" or "pkg.Type.Method".
var surfaceAllowlist = map[string]string{
	"chaos.Injector.SlowReader": "TestServiceChaosSoak: the soak's tenants throttle their stream reads on the plan's slow-reader faults",
	"isa.Memory.Pages":          "TestServiceMatchesBatchRun: a settled service job gives back every guest page",
	"taint.Shadow.Pages":        "TestServiceMatchesBatchRun: a settled service job gives back every shadow page",
	"taint.Shadow.BytePages":    "loader TestDataTailTagging and vos TestStartupShadowStaysWordMode count the shadow pages that load-time tagging degrades to byte mode",
	"secpert.SharedPolicy":      "TestSharedPolicyImmutable: the guard hashes the shared policy before and after a service sweep",
	"vos.OS.SetStepsPerSlice":   "TestTraceSliceResume runs at slices of 128 and 13, and the §9 perf benchmarks (internal/corpus/perf_test.go) at 4096",
}

// TestNoDeadSurface type-checks every package of the module plus the
// cmd/hth-load benchmark module (its own module, so `go build ./...`
// never reaches it) and fails for each function or method in
// internal/... that no non-test code references. Methods that
// implement an interface method are exempt: their callers go through
// the interface. Constants and struct fields are out of scope.
func TestNoDeadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	l := newSurfaceLoader(t)
	for _, path := range l.paths() {
		l.load(path)
	}
	l.load("repro/cmd/hth-load")

	used := map[*types.Func]bool{}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := l.decls[fn]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue // recursion is not a reader
			}
			used[fn] = true
		}
	}
	ifaces := l.interfaces()

	stale := map[string]bool{}
	for name := range surfaceAllowlist {
		stale[name] = true
	}
	var dead []string
	for fn := range l.decls {
		if used[fn] || fn.Name() == "init" || fn.Name() == "main" {
			continue
		}
		if !strings.HasPrefix(fn.Pkg().Path(), "repro/internal/") {
			continue
		}
		if implementsInterface(fn, ifaces) {
			continue
		}
		name := surfaceName(fn)
		if _, ok := surfaceAllowlist[name]; ok {
			delete(stale, name)
			continue
		}
		dead = append(dead, name+" ("+l.fset.Position(fn.Pos()).String()+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test code references %s", d)
	}
	for name := range stale {
		t.Errorf("allowlist entry %s is stale: non-test code references it, or it is gone", name)
	}
}

// surfaceName is "pkg.Func" or "pkg.Type.Method".
func surfaceName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// implementsInterface reports whether fn is a method whose receiver
// type (or a pointer to it) implements an interface that has a method
// of fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if _, ok := rt.Underlying().(*types.Interface); ok {
		return true // an interface's own method is a contract
	}
	ptr := types.NewPointer(rt)
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(rt, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// surfaceLoader parses and type-checks the module's non-test files
// from source, resolving repro/... imports to its own directories and
// everything else through the standard library's source importer.
type surfaceLoader struct {
	t     *testing.T
	fset  *token.FileSet
	root  string
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	infos []*types.Info
	decls map[*types.Func]*ast.FuncDecl
}

func newSurfaceLoader(t *testing.T) *surfaceLoader {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &surfaceLoader{
		t:     t,
		fset:  fset,
		root:  root,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  map[string]*types.Package{},
		decls: map[*types.Func]*ast.FuncDecl{},
	}
}

// paths lists the import path of every package directory of the root
// module; nested modules (a go.mod below the root) and testdata are
// skipped.
func (l *surfaceLoader) paths() []string {
	var out []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if pkg, err := build.ImportDir(p, 0); err == nil && len(pkg.GoFiles) > 0 {
			rel, _ := filepath.Rel(l.root, p)
			out = append(out, filepath.ToSlash(filepath.Join("repro", rel)))
		}
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
	return out
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *surfaceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return l.load(path), nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of one repro/... package.
func (l *surfaceLoader) load(path string) *types.Package {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = pkg
	l.infos = append(l.infos, info)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					l.decls[fn] = fd
				}
			}
		}
	}
	return pkg
}

// errorsInterfaces spells out the unnamed interfaces the errors
// package matches against, which no package scope declares.
const errorsInterfaces = `package p

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfaces gathers every interface type the checked code names or
// spells out, plus those declared by the packages it imports.
func (l *surfaceLoader) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(l.fset, "errors_ifaces.go", errorsInterfaces, 0)
	if err != nil {
		l.t.Fatal(err)
	}
	errs, err := (&types.Config{}).Check("errors_ifaces", l.fset, []*ast.File{f}, nil)
	if err != nil {
		l.t.Fatal(err)
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(errs)
	for _, p := range l.pkgs {
		walk(p)
	}
	for _, info := range l.infos {
		for _, tv := range info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}
