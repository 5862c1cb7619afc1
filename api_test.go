package lam

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
	"lam/internal/parallel.For":           "the uncancellable loop ForCtx is built on",
	"lam/internal/parallel.ForBlocks":     "the uncancellable block loop of the context-free batch branch",
}

// TestOneEntryPointPerOperation keeps the API from regrowing the
// families this module folded away: it parses every non-test Go file
// and fails on an exported function or method X that has an XCtx,
// XWorkers or XOpts twin (unless twinAllowlist says why it stays), on an
// allowlist entry that no longer has a twin, and on any deprecation
// marker — a wrapper worth deprecating is a wrapper worth deleting.
func TestOneEntryPointPerOperation(t *testing.T) {
	fset := token.NewFileSet()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "Deprecated"+":") {
					t.Errorf("%s: deprecation marker — delete the wrapper instead", fset.Position(c.Pos()))
				}
			}
		}
		pkg := "lam"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				funcs[pkg+"."+funcName(fd)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
