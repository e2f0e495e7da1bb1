package pacevm

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowed lists the exported internal identifiers no non-test file
// references that stay anyway, each with its reason. A bare method name
// covers that method on every type. An entry that matches nothing fails
// the test, so the list cannot outlive what it excuses.
var exportAllowed = map[string]string{
	"MarshalText":   "encoding/json calls it through encoding.TextMarshaler",
	"UnmarshalText": "encoding/json calls it through encoding.TextUnmarshaler",
	"MarshalJSON":   "encoding/json calls it through json.Marshaler",

	"pacevm/internal/campaign.MeasureMix":    "measures one placed mix; the model-fidelity check will call it",
	"pacevm/internal/serve.Service.Place":    "the service's direct in-process API beside its HTTP handler",
	"pacevm/internal/obs.ValidateExposition": "Prometheus-format oracle shared by the obs and serve tests",

	// Accessors that other packages' tests read.
	"pacevm/internal/cloudsim.VMAudit.Spans":       "the root integration test reads the finished spans",
	"pacevm/internal/obs.ReadTraceFile":            "the cloudsim and pacevm-sim tests read back written traces",
	"pacevm/internal/hw.Spec.MaxPower":             "the vmm tests bound measured power by it",
	"pacevm/internal/vmm.Result.Energy":            "the power meter tests compare against the exact integral",
	"pacevm/internal/workload.Benchmark.AvgDemand": "the profiler tests compare labels with declared demand",

	// Fields a golden hash reads; dropping one would re-pin it.
	"pacevm/internal/campaign.BasePoint.Energy":   "TestGoldenCampaign hashes every base point's energy",
	"pacevm/internal/campaign.BasePoint.MaxPower": "TestGoldenCampaign hashes every base point's peak power",
}

// TestEveryExportIsReached fails, naming each one, for an exported
// identifier of an internal package that no non-test file references:
// such code runs only under its own tests and belongs in a test file or
// nowhere. Exported fields of named struct types count too, except
// tagged ones (an encoder reads those through reflection), and storing
// into a field — an assignment, an increment or a composite-literal key
// — is not a reference: a field nothing reads carries nothing. The
// commands, the examples and the perfbench module count as users. A method also counts as used when its type satisfies an
// interface that non-test code names or passes values through (so the
// strategies' Place methods, the consolidator's Propose and the
// checkpoint policies count).
func TestEveryExportIsReached(t *testing.T) {
	pkgs, used := reachedTree(t)
	var unused []string
	for _, p := range pkgs {
		if !p.internal {
			continue
		}
		for _, d := range declared(p) {
			if d.obj.Exported() && !used[d.obj] {
				unused = append(unused, d.id)
			}
		}
	}
	sort.Strings(unused)
	excused := map[string]bool{}
	for _, id := range unused {
		method := id[strings.LastIndex(id, ".")+1:]
		switch {
		case exportAllowed[id] != "":
			excused[id] = true
		case exportAllowed[method] != "":
			excused[method] = true
		default:
			t.Errorf("%s is referenced by no non-test file", id)
		}
	}
	for id := range exportAllowed {
		if !excused[id] {
			t.Errorf("exportAllowed entry %s excuses nothing; remove it", id)
		}
	}
}

// TestEveryUnexportedIsReached is the same check for unexported
// identifiers, in every package of the tree: a package-level name, a
// method or a field of a named struct type that only tests reference is
// dead code the compiler does not flag. References count as in
// TestEveryExportIsReached; the blank identifier and a command's main
// are exempt, and there is no allow-list.
func TestEveryUnexportedIsReached(t *testing.T) {
	pkgs, used := reachedTree(t)
	for _, p := range pkgs {
		for _, d := range declared(p) {
			name := d.obj.Name()
			if d.obj.Exported() || name == "_" || used[d.obj] ||
				(name == "main" && p.pkg.Name() == "main" && d.obj.Parent() == p.pkg.Scope()) {
				continue
			}
			t.Errorf("%s is referenced by no non-test file", d.id)
		}
	}
}

var (
	treeOnce sync.Once
	treePkgs []*checkedPkg
	treeUsed map[types.Object]bool
	treeErr  error
)

// reachedTree type-checks the tree once per test binary and returns its
// packages with the set of objects non-test code references.
func reachedTree(t *testing.T) ([]*checkedPkg, map[types.Object]bool) {
	t.Helper()
	treeOnce.Do(func() {
		if treePkgs, treeErr = checkTree("."); treeErr == nil {
			treeUsed = usedObjects(treePkgs)
		}
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treePkgs, treeUsed
}

// usedObjects returns the objects the packages' files reference, stores
// left out, plus every method a type of the tree provides to an
// interface the files name or pass values through.
func usedObjects(pkgs []*checkedPkg) map[types.Object]bool {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		writes := writeTargets(p.files, p.info)
		for id, obj := range p.info.Uses {
			if writes[id] {
				continue
			}
			used[origin(obj)] = true
			if tn, ok := obj.(*types.TypeName); ok {
				ifaces = collectInterfaces(ifaces, tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			ifaces = collectInterfaces(ifaces, tv.Type)
		}
	}
	for _, p := range pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
					if obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
	return used
}

// decl is one declared identifier of a package and its qualified name.
type decl struct {
	obj types.Object
	id  string
}

// declared lists a package's package-level identifiers, the methods of
// its named types, and the fields of its named struct types other than
// embedded and tagged ones.
func declared(p *checkedPkg) []decl {
	var out []decl
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		out = append(out, decl{obj, p.path + "." + name})
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" {
					out = append(out, decl{f, p.path + "." + name + "." + f.Name()})
				}
			}
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			out = append(out, decl{m, p.path + "." + name + "." + m.Name()})
		}
	}
	return out
}

// writeTargets returns the identifiers in files that only store into
// what they name: the field or package variable an assignment or an
// increment writes through a selector, and the field keys of composite
// literals. A field that is only ever stored is read by nothing.
func writeTargets(files []*ast.File, info *types.Info) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			case *ast.CompositeLit:
				if _, ok := info.Types[n].Type.Underlying().(*types.Struct); !ok {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
			return true
		})
	}
	return writes
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collectInterfaces appends the non-empty interfaces found in t, looking
// through pointers, containers and function signatures.
func collectInterfaces(out []*types.Interface, t types.Type) []*types.Interface {
	switch u := t.(type) {
	case nil:
		return out
	case *types.Pointer:
		return collectInterfaces(out, u.Elem())
	case *types.Slice:
		return collectInterfaces(out, u.Elem())
	case *types.Array:
		return collectInterfaces(out, u.Elem())
	case *types.Map:
		return collectInterfaces(collectInterfaces(out, u.Key()), u.Elem())
	case *types.Chan:
		return collectInterfaces(out, u.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				out = collectInterfaces(out, tup.At(i).Type())
			}
		}
		return out
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		for _, seen := range out {
			if types.Identical(seen, it) {
				return out
			}
		}
		out = append(out, it)
	}
	return out
}

// checkedPkg is one type-checked package of the tree, test files left out.
type checkedPkg struct {
	path     string
	internal bool
	pkg      *types.Package
	info     *types.Info
	files    []*ast.File
}

// checkTree type-checks the non-test files of every package under root
// (the perfbench module included), importing the standard library from
// source, and returns the packages in path order.
func checkTree(root string) ([]*checkedPkg, error) {
	dirs := map[string]string{} // import path → directory
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := "pacevm"
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	done := map[string]*checkedPkg{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		dir, ok := dirs[path]
		if !ok {
			return std.Import(path)
		}
		if p := done[path]; p != nil {
			return p.pkg, nil
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		done[path] = &checkedPkg{path: path, internal: strings.HasPrefix(path, "pacevm/internal/"), pkg: pkg, info: info, files: files}
		return pkg, nil
	}
	var out []*checkedPkg
	for path := range dirs {
		if _, err := imp(path); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, err
		}
		out = append(out, done[path])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
