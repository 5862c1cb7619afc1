package lam

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sourceFile is one parsed Go file of the module.
type sourceFile struct {
	pkg  string // import path, "lam" for the root
	file *ast.File
}

// module is every Go file of the module that the default build context
// compiles (build tags and GOOS/GOARCH suffixes honoured), parsed once.
type module struct {
	fset  *token.FileSet
	files []sourceFile // non-test files, with comments
	tests []sourceFile // _test.go files
}

// parsedModule parses the module once per test binary.
var parsedModule = sync.OnceValues(parseModule)

// loadModule returns the module for the root guards. Hidden
// directories and testdata are skipped.
func loadModule(t *testing.T) *module {
	t.Helper()
	m, err := parsedModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func parseModule() (*module, error) {
	m := &module{fset: token.NewFileSet()}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "lam"
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		sf := sourceFile{pkg: pkg, file: f}
		if strings.HasSuffix(path, "_test.go") {
			m.tests = append(m.tests, sf)
		} else {
			m.files = append(m.files, sf)
		}
		return nil
	})
	return m, err
}
