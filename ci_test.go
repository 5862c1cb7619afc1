package lam

import (
	"go/ast"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runFilter matches a go test -run pattern, quoted or bare.
var runFilter = regexp.MustCompile(`-run\s+('[^']*'|"[^"]*"|\S+)`)

// TestCIRunFiltersNameTests keeps the CI workflow's -run filters
// honest: a filter that matches nothing passes green with "no tests to
// run", so every test a filter names must be declared in some _test.go.
// The match-nothing filter ^$ is skipped.
func TestCIRunFiltersNameTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, sf := range loadModule(t).tests {
		for _, decl := range sf.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
	}
	named := 0
	for _, m := range runFilter.FindAllStringSubmatch(string(raw), -1) {
		for _, name := range strings.Split(strings.Trim(m[1], `'"`), "|") {
			name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$")
			if name == "" {
				continue
			}
			named++
			if !declared[name] {
				t.Errorf("ci.yml runs -run %s, but no _test.go declares func %s", m[1], name)
			}
		}
	}
	if named < 5 {
		t.Fatalf("found only %d test names in ci.yml -run filters: the parse is broken", named)
	}
}
