package ml

import (
	"math/rand"
	"strings"
	"testing"
)

// roundTrip encodes a model with the one writer, AppendBinary, and
// decodes it back, failing the test on error.
func roundTrip(t *testing.T, m Regressor) Regressor {
	t.Helper()
	bin, err := AppendBinary(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinaryVersion(bin, BinaryVersionLatest, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// assertSamePredictions compares two models over probe points.
func assertSamePredictions(t *testing.T, a, b Regressor, probes [][]float64) {
	t.Helper()
	for i, x := range probes {
		pa, pb := a.Predict(x), b.Predict(x)
		if pa != pb {
			t.Fatalf("probe %d: original %v, reloaded %v", i, pa, pb)
		}
	}
}

func TestPersistDecisionTree(t *testing.T) {
	X, y := friedman1(200, 0.5, 71)
	probes, _ := friedman1(30, 0, 72)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 6, Seed: 1})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, tree)
	assertSamePredictions(t, tree, loaded, probes)
	lt := loaded.(*DecisionTree)
	if lt.nodes.depth() != tree.nodes.depth() || lt.nodes.numLeaves() != tree.nodes.numLeaves() {
		t.Error("tree shape changed through persistence")
	}
	imp := lt.importances
	want := tree.importances
	for i := range want {
		if imp[i] != want[i] {
			t.Error("importances changed through persistence")
		}
	}
}

func TestPersistForest(t *testing.T) {
	X, y := friedman1(200, 0.5, 73)
	probes, _ := friedman1(30, 0, 74)
	for _, f := range []*Forest{NewRandomForest(15, 2), NewExtraTrees(15, 2)} {
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, f)
		assertSamePredictions(t, f, loaded, probes)
		if len(loaded.(*Forest).trees) != 15 {
			t.Error("forest size changed")
		}
	}
}

func TestPersistPipeline(t *testing.T) {
	X, y := friedman1(150, 0.3, 81)
	probes, _ := friedman1(20, 0, 82)
	p := &Pipeline{Model: NewExtraTrees(10, 5)}
	if err := p.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, p, roundTrip(t, p), probes)
}

func TestPersistRejectsUnfitted(t *testing.T) {
	for _, m := range []Regressor{
		NewDecisionTree(TreeConfig{}),
		NewRandomForest(5, 1),
		&Pipeline{Model: NewExtraTrees(3, 1)},
	} {
		if _, err := AppendBinary(nil, m); err == nil {
			t.Errorf("saving unfitted %T should fail", m)
		}
	}
}

func TestPersistRejectsUnsupported(t *testing.T) {
	if _, err := AppendBinary(nil, &constModel{}); err == nil {
		t.Error("expected unsupported-type error")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"kind":"martian","data":{}}`,
		`{"kind":"decision_tree","data":{"nodes":[]}}`,
		`{"kind":"forest","data":{"trees":[]}}`,
		`{"kind":"linreg","data":{}}`,
		`{"kind":"knn","data":{"x":[[1]],"y":[]}}`,
		`{"kind":"gbr","data":{"stages":[]}}`,
		`{"kind":"pipeline","data":{"model":{"kind":"martian","data":{}}}}`,
	}
	for i, c := range cases {
		if _, err := LoadModel(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestLoadModelRejectsCorruptTreeLinks(t *testing.T) {
	// Internal node with out-of-range child index.
	payload := `{"kind":"decision_tree","data":{"n_features":1,"nodes":[{"f":0,"t":1,"v":0,"n":2,"l":5,"r":-1}]}}`
	if _, err := LoadModel(strings.NewReader(payload)); err == nil {
		t.Error("expected corrupt-index error")
	}
	// Internal node missing a child.
	payload = `{"kind":"decision_tree","data":{"n_features":1,"nodes":[{"f":0,"t":1,"v":0,"n":2,"l":-1,"r":-1}]}}`
	if _, err := LoadModel(strings.NewReader(payload)); err == nil {
		t.Error("expected missing-child error")
	}
}

// TestRefitDropsMappingOwner: a tree decoded in place holds the owner
// of the bytes its columns alias; refitting it replaces those columns,
// so it must let the owner go.
func TestRefitDropsMappingOwner(t *testing.T) {
	X, y := randomRegression(rand.New(rand.NewSource(13)), 80, 2)
	tree := NewDecisionTree(TreeConfig{Seed: 1})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bin, err := AppendBinary(nil, tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeBinaryVersion(bin, BinaryVersionLatest, "mapping owner")
	if err != nil {
		t.Fatal(err)
	}
	loaded := m.(*DecisionTree)
	if loaded.nodes.keep == nil {
		t.Fatal("decoded tree does not hold its owner")
	}
	if err := loaded.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if loaded.nodes.keep != nil {
		t.Fatal("refitted tree still holds the owner of the bytes it was decoded from")
	}
}
