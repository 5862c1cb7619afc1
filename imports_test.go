package lam

import (
	"strconv"
	"strings"
	"testing"
)

// TestServingLinksNoResearchCode keeps the serving binaries off the
// research code: it parses the imports of every non-test Go file and
// fails if the transitive closure of lam-serve or lam-gateway reaches
// the figure harness (internal/experiments) or the library facade,
// which links it. Serving reads the canonical workloads from
// internal/workload instead.
func TestServingLinksNoResearchCode(t *testing.T) {
	imports := moduleImports(t)
	forbidden := []string{"lam/internal/experiments", "lam"}
	for _, root := range []string{"lam/cmd/lam-serve", "lam/cmd/lam-gateway"} {
		if _, ok := imports[root]; !ok {
			t.Fatalf("%s not found: the import walk is broken", root)
		}
		// Breadth-first over the module's packages, remembering who
		// imported each one so a failure can print the chain.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			for imp := range imports[pkg] {
				if _, seen := via[imp]; !seen {
					via[imp] = pkg
					queue = append(queue, imp)
				}
			}
		}
		for _, bad := range forbidden {
			if _, ok := via[bad]; !ok {
				continue
			}
			chain := []string{bad}
			for p := via[bad]; p != ""; p = via[p] {
				chain = append([]string{p}, chain...)
			}
			t.Errorf("%s links %s: %s", root, bad, strings.Join(chain, " -> "))
		}
	}
}

// moduleImports maps each package of the module to the module packages
// its non-test files import.
func moduleImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	imports := map[string]map[string]bool{}
	for _, sf := range loadModule(t).files {
		if imports[sf.pkg] == nil {
			imports[sf.pkg] = map[string]bool{}
		}
		for _, spec := range sf.file.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if imp == "lam" || strings.HasPrefix(imp, "lam/") {
				imports[sf.pkg][imp] = true
			}
		}
	}
	return imports
}
