package lam

import (
	"go/ast"
	"go/importer"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// twinAllowlist names the exported X that may live beside an XCtx,
// XWorkers or XOpts, each with the reason it survives. Anything else with such a
// twin is a second entry point for one operation: fold it into the
// ctx-first survivor instead of adding it here.
var twinAllowlist = map[string]string{
	"lam/internal/ml.PredictBatchInto":    "called by frozen benchmark/",
	"lam/internal/hybrid.Model.Predict":   "called by frozen benchmark/",
	"lam/internal/hybrid.Model.MAPE":      "called by frozen benchmark/",
	"lam/internal/hybrid.AnalyticalMAPE":  "called by frozen benchmark/",
	"lam/internal/registry.Registry.Load": "called by frozen benchmark/",
	"lam/internal/ml.Pipeline.Fit":        "called by frozen benchmark/; ml.Regressor requires Fit",
	"lam/internal/ml.Forest.Fit":          "ml.Regressor requires Fit; FitCtx is the ml.ContextFitter half",
}

// TestOneEntryPointPerOperation keeps the API from regrowing the
// families this module folded away: it parses every non-test Go file
// and fails on an exported function or method X that has an XCtx,
// XWorkers or XOpts twin (unless twinAllowlist says why it stays), on an
// allowlist entry that no longer has a twin, and on any deprecation
// marker — a wrapper worth deprecating is a wrapper worth deleting.
func TestOneEntryPointPerOperation(t *testing.T) {
	m := loadModule(t)
	funcs := map[string]bool{}
	for _, sf := range m.files {
		for _, cg := range sf.file.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "Deprecated"+":") {
					t.Errorf("%s: deprecation marker — delete the wrapper instead", m.fset.Position(c.Pos()))
				}
			}
		}
		for _, decl := range sf.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				funcs[sf.pkg+"."+funcName(fd)] = true
			}
		}
	}
	if len(funcs) < 100 {
		t.Fatalf("found only %d exported functions — the walk is broken", len(funcs))
	}

	keys := make([]string, 0, len(funcs))
	for k := range funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	used := map[string]bool{}
	for _, k := range keys {
		for _, suffix := range []string{"Ctx", "Workers", "Opts"} {
			if !funcs[k+suffix] {
				continue
			}
			if _, ok := twinAllowlist[k]; ok {
				used[k] = true
				continue
			}
			t.Errorf("%s has a twin %s%s: keep one entry point per operation", k, k, suffix)
		}
	}
	for k := range twinAllowlist {
		if !used[k] {
			t.Errorf("twinAllowlist entry %s has no twin left; delete the entry", k)
		}
	}
}

// funcName is fd's name, qualified by its receiver's type for methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// testOnlyAllowlist names the functions and methods that no non-test
// code calls but that stay in non-test files, each with its reason.
// Anything else that only tests call belongs in the _test.go file of
// the package whose tests need it, or nowhere.
var testOnlyAllowlist = map[string]string{
	"lam/internal/trace.Stencil":                  sectionIVA,
	"lam/internal/cachesim.FromMachine":           sectionIVA,
	"lam/internal/cachesim.Hierarchy.Access":      sectionIVA,
	"lam/internal/cachesim.Hierarchy.Levels":      sectionIVA,
	"lam/internal/cachesim.Cache.Misses":          sectionIVA,
	"lam/internal/analytical.StencilModel.Misses": sectionIVA,
	"lam/internal/analytical.FMMModel.OptimalQ":   "the paper's §IV.B optimal-q claim; stays until the claims ledger (ROADMAP) rules on §IV.B",
	"lam/internal/experiments.DriftScenarioCtx":   "the drift fixture the serve and online tests share across packages",
}

// sectionIVA is why the trace-driven cache simulator stays.
const sectionIVA = "ground truth for the §IV.A miss model, pending the claims ledger's verdict (ROADMAP)"

// TestNoTestOnlyCode keeps production code to what production calls: it
// type-checks every non-test package of the module and fails on a
// function or method, exported or not, that no identifier in a non-test
// file resolves to. Exempt are main and init, a method through which
// its type implements an interface, the root package's exported facade,
// and testOnlyAllowlist, whose stale entries fail too.
func TestNoTestOnlyCode(t *testing.T) {
	m := loadModule(t)
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkgs := m.typeCheck(t, info)
	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := interfaces(pkgs, info)
	allowed := map[string]bool{}
	for _, sf := range m.files {
		for _, decl := range sf.file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || (fd.Name.Name == "main" && fd.Recv == nil) ||
				(sf.pkg == "lam" && fd.Name.IsExported()) {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			if used[fn] || implementsVia(fn, ifaces) {
				continue
			}
			name := sf.pkg + "." + funcName(fd)
			if _, ok := testOnlyAllowlist[name]; ok {
				allowed[name] = true
				continue
			}
			t.Errorf("%s: %s has no non-test caller: delete it, or move it into the _test.go that needs it",
				m.fset.Position(fd.Pos()), name)
		}
	}
	for name := range testOnlyAllowlist {
		if !allowed[name] {
			t.Errorf("testOnlyAllowlist entry %s is not test-only any more; delete the entry", name)
		}
	}
}

// typeCheck type-checks the module's non-test packages into info and
// returns every package they reach, the standard library's included,
// which it checks from source.
func (m *module) typeCheck(t *testing.T, info *types.Info) []*types.Package {
	t.Helper()
	files := map[string][]*ast.File{}
	for _, sf := range m.files {
		files[sf.pkg] = append(files[sf.pkg], sf.file)
	}
	std := importer.ForCompiler(m.fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if path != "lam" && !strings.HasPrefix(path, "lam/") {
			return std.Import(path)
		}
		if p, ok := checked[path]; ok {
			return p, nil
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, m.fset, files[path], info)
		checked[path] = p
		return p, err
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}
	var all []*types.Package
	seen := map[*types.Package]bool{}
	var visit func(pkgs []*types.Package)
	visit = func(pkgs []*types.Package) {
		for _, p := range pkgs {
			if !seen[p] {
				seen[p] = true
				all = append(all, p)
				visit(p.Imports())
			}
		}
	}
	for _, p := range checked {
		visit([]*types.Package{p})
	}
	return all
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces lists the non-generic named interfaces of the package-level
// objects of pkgs and the interface literals of the module, such as the
// method sets that type assertions probe for.
func interfaces(pkgs []*types.Package, info *types.Info) []*types.Interface {
	var out []*types.Interface
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok && tv.Type.(*types.Interface).NumMethods() > 0 {
			out = append(out, tv.Type.(*types.Interface))
		}
	}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			named, ok := p.Scope().Lookup(name).Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// implementsVia reports whether fn is a method through which its
// receiver type T implements one of ifaces (*T's method set holds T's).
func implementsVia(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		ptr = types.NewPointer(recv.Type())
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
