package registry

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lam/internal/artifact"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// TestFormatDefaultsAndEscapeHatch checks new saves write lamb1 under
// model.lamb, the jsonv1 escape hatch writes model.json, and both load
// bit-identically.
func TestFormatDefaultsAndEscapeHatch(t *testing.T) {
	hy, X := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}
	m1, err := reg.SaveHybrid(hy, base)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Format != artifact.FormatLAMB1 {
		t.Fatalf("default save format = %q, want lamb1", m1.Format)
	}
	m2, err := reg.SaveHybridOpts(hy, base, SaveOptions{Format: artifact.FormatJSONV1})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Format != artifact.FormatJSONV1 {
		t.Fatalf("jsonv1 save format = %q", m2.Format)
	}
	if _, err := os.Stat(filepath.Join(reg.Root(), "m", "v0001", "model.lamb")); err != nil {
		t.Fatalf("lamb1 artifact file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(reg.Root(), "m", "v0002", "model.json")); err != nil {
		t.Fatalf("jsonv1 artifact file: %v", err)
	}
	if _, err := reg.SaveHybridOpts(hy, base, SaveOptions{Format: "no-such-format"}); err == nil {
		t.Fatal("unknown format accepted")
	}

	want := make([]float64, len(X))
	if err := hy.PredictBatchIntoCtx(context.Background(), X, want, 0); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		lm, err := reg.Load("m", v)
		if err != nil {
			t.Fatalf("load v%d: %v", v, err)
		}
		got, err := lm.PredictBatch(context.Background(), X)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v%d row %d: %v != %v", v, i, got[i], want[i])
			}
		}
	}
}

// TestLegacyRegistrySniffAndCache simulates a registry written before
// the codec layer — model.json with no format field in meta.json — and
// checks it loads unchanged, with the sniffed format cached back into
// meta.json so the second load skips the probe.
func TestLegacyRegistrySniffAndCache(t *testing.T) {
	hy, X := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybridOpts(hy, Meta{Name: "legacy", Workload: "stencil-grid", Machine: "bluewaters"},
		SaveOptions{Format: artifact.FormatJSONV1}); err != nil {
		t.Fatal(err)
	}
	// Rewrite meta.json without the format field, as a pre-codec build
	// would have written it.
	metaPath := filepath.Join(reg.Root(), "legacy", "v0001", "meta.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "format")
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}

	lm, err := reg.Load("legacy", 0)
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if lm.Meta.Format != artifact.FormatJSONV1 {
		t.Fatalf("sniffed format = %q, want jsonv1", lm.Meta.Format)
	}
	want := make([]float64, len(X))
	if err := hy.PredictBatchIntoCtx(context.Background(), X, want, 0); err != nil {
		t.Fatal(err)
	}
	got, err := lm.PredictBatch(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
	// The sniff result must now be cached in meta.json (satellite:
	// mixed-format registries pay the probe once, not per load).
	cached, err := reg.readMeta("legacy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Format != artifact.FormatJSONV1 {
		t.Fatalf("cached format = %q, want jsonv1 written back", cached.Format)
	}
}

// TestConvertInPlace converts a version jsonv1 → lamb1 → jsonv1 and
// checks predictions are bit-identical at every step, the artifact file
// is swapped, and converting to the current format is a no-op.
func TestConvertInPlace(t *testing.T) {
	hy, X := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybridOpts(hy, Meta{Name: "c", Workload: "stencil-grid", Machine: "bluewaters"},
		SaveOptions{Format: artifact.FormatJSONV1}); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(X))
	if err := hy.PredictBatchIntoCtx(context.Background(), X, want, 0); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		lm, err := reg.Load("c", 0)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got, err := lm.PredictBatch(context.Background(), X)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: %v != %v", stage, i, got[i], want[i])
			}
		}
	}
	vdir := filepath.Join(reg.Root(), "c", "v0001")

	meta, err := reg.Convert("c", 0, artifact.FormatLAMB1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != artifact.FormatLAMB1 {
		t.Fatalf("converted format = %q", meta.Format)
	}
	if _, err := os.Stat(filepath.Join(vdir, "model.json")); !os.IsNotExist(err) {
		t.Fatalf("old jsonv1 artifact still present after convert: %v", err)
	}
	check("after convert to lamb1")

	// No-op convert.
	if _, err := reg.Convert("c", 0, artifact.FormatLAMB1); err != nil {
		t.Fatal(err)
	}
	check("after no-op convert")

	if _, err := reg.Convert("c", 0, artifact.FormatJSONV1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(vdir, "model.lamb")); !os.IsNotExist(err) {
		t.Fatalf("old lamb1 artifact still present after convert back: %v", err)
	}
	check("after convert back to jsonv1")

	info, _, err := reg.ArtifactInfo("c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != artifact.FormatJSONV1 || info.Kind != KindHybrid {
		t.Fatalf("ArtifactInfo = %+v", info)
	}
	if !strings.HasPrefix(info.Estimator, "hybrid(") {
		t.Fatalf("estimator = %q", info.Estimator)
	}
}

// TestCorruptLamb1FailsTyped damages a saved lamb1 artifact on disk —
// a bit flip, then truncations — and checks Load, reading it through
// the mapped path, fails with ErrCorruptArtifact every time. Each
// damaged file replaces the published one through a rename, as the
// immutability contract asks. (TestEmptyArtifactIsCorrupt covers the
// 0-byte file.)
func TestCorruptLamb1FailsTyped(t *testing.T) {
	hy, _ := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, Meta{Name: "x", Workload: "stencil-grid", Machine: "bluewaters"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(reg.Root(), "x", "v0001", "model.lamb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(data)
	flipped[len(flipped)/2] ^= 0x40
	replaceFile(t, path, flipped)
	if _, err := reg.Load("x", 0); !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("load of bit-flipped artifact: got %v, want ErrCorruptArtifact", err)
	}
	// Cut 1, 4, 8, 24 or 4096 bytes off the end, and from each cut go
	// on down the file in sixteenths.
	for _, cut := range []int{1, 4, 8, 24, 4096} {
		for n := len(data) - cut; n > 0; n -= len(data) / 16 {
			replaceFile(t, path, data[:n])
			if _, err := reg.Load("x", 0); !errors.Is(err, lamerr.ErrCorruptArtifact) {
				t.Fatalf("load of artifact truncated to %d of %d bytes: got %v, want ErrCorruptArtifact", n, len(data), err)
			}
		}
	}
	replaceFile(t, path, data)
	if _, err := reg.Load("x", 0); err != nil {
		t.Fatalf("load of the restored artifact: %v", err)
	}
}

// benchModel builds a serving-shape regressor: a 100-tree extra-trees
// pipeline fitted on n samples (a few thousand is what lam-serve
// actually cold-loads).
func benchModel(b testing.TB, n int) ml.Regressor {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	d := 6
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = row[0]*row[1] + row[2]
	}
	reg := &ml.Pipeline{Model: ml.NewExtraTrees(100, 1)}
	if err := reg.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return reg
}

// benchRegistry publishes the bench model once per format and returns
// the registry.
func benchRegistry(b testing.TB, format string, n int) *Registry {
	b.Helper()
	reg, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.SaveRegressorOpts(benchModel(b, n), Meta{Name: "bench"}, SaveOptions{Format: format}); err != nil {
		b.Fatal(err)
	}
	return reg
}

func benchColdLoad(b *testing.B, format string) {
	reg := benchRegistry(b, format, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Load("bench", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColdLoadAllocationBudget pins what a lamb1 cold load may
// allocate: one packed 16-byte record per node, and 64 KB for
// everything else (the per-tree headers, roots, meta.json). The file is
// mapped, not read, so it is no part of the budget: a load that copies
// the artifact into the heap, a second fused copy of the nodes or an
// append-grown table breaks the budget.
func TestColdLoadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := benchRegistry(t, artifact.FormatLAMB1, 800)
	info, _, err := reg.ArtifactInfo("bench", 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Trees != 100 || info.Nodes < 50_000 {
		t.Fatalf("fixture is %d trees / %d nodes, want a 100-tree serving-shape model", info.Trees, info.Nodes)
	}
	budget := uint64(16*info.Nodes + 64<<10)
	const loads = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		if _, err := reg.Load("bench", 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / loads
	t.Logf("cold load allocates %d B of a %d B budget", perLoad, budget)
	if perLoad > budget {
		t.Fatalf("cold load allocates %d B, budget %d B (16 x %d nodes + 64 KB)", perLoad, budget, info.Nodes)
	}
}

// BenchmarkColdLoadJSON vs BenchmarkColdLoadBinary is the cold-start
// claim of the artifact plane: lamb1 loads are one file mapping plus
// slice-casting, jsonv1 loads decode per node. See BENCH_PR6.json for
// recorded runs.
func BenchmarkColdLoadJSON(b *testing.B)   { benchColdLoad(b, artifact.FormatJSONV1) }
func BenchmarkColdLoadBinary(b *testing.B) { benchColdLoad(b, artifact.FormatLAMB1) }
