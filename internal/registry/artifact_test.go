package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
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

// The legacy fixture under testdata/legacy is a registry as a build
// from before the codec layer left it: each version holds model.json
// (jsonv1) and a meta.json with no "format" key. Nothing in this module
// writes jsonv1 any more, so the fixture is committed and never
// regenerated. Recipe (run once, at commit f4b08b4, the last build
// with a jsonv1 writer):
//
//	bw := machine.BlueWatersXE6(); w, _ := workload.Lookup("stencil-grid")
//	ds, _ := w.Dataset(bw, 42)
//	train, test, _ := ds.SampleFraction(0.05, rand.New(rand.NewSource(42)))
//	small := func() ml.Regressor { return &ml.Pipeline{Model: ml.NewExtraTrees(4, 42)} }
//	hy, _ := hybrid.TrainCtx(ctx, train, w.AM(bw), hybrid.Config{Seed: 42, NewML: small})
//	et := small(); ml.FitCtx(ctx, et, train.X, train.Y)
//	meta := registry.Meta{Workload: "stencil-grid", Machine: "bluewaters", TrainSize: train.Len()}
//	opts := registry.SaveOptions{Format: artifact.FormatJSONV1}
//	reg.SaveHybridOpts(hy, meta /* Name: "grid-hybrid" */, opts)
//	reg.SaveRegressorOpts(et, meta /* Name: "grid-et" */, opts)
//
// then each meta.json rewritten without "format" and with created_at
// 2026-10-17T00:00:00Z, and pred.json holding test.X[:16] and each
// version's PredictBatch of it.

// legacyPredictions is testdata/legacy/pred.json: probe rows and each
// model's pinned predictions on them.
type legacyPredictions struct {
	X    [][]float64          `json:"x"`
	Pred map[string][]float64 `json:"pred"`
}

// legacyNames are the model names in the legacy fixture.
var legacyNames = []string{"grid-hybrid", "grid-et"}

// openLegacy copies the legacy fixture into a temp dir (loads and
// converts write to it) and opens it, with its pinned predictions.
func openLegacy(t *testing.T) (*Registry, legacyPredictions) {
	t.Helper()
	src := filepath.Join("testdata", "legacy")
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(src, "pred.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want legacyPredictions
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return reg, want
}

// requirePinned loads name's latest version and requires its format
// and bit-identical pinned predictions.
func requirePinned(t *testing.T, reg *Registry, want legacyPredictions, name, format string) *Model {
	t.Helper()
	lm, err := reg.Load(name, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if lm.Meta.Format != format {
		t.Fatalf("%s: format %q, want %q", name, lm.Meta.Format, format)
	}
	got, err := lm.PredictBatch(context.Background(), want.X)
	if err != nil {
		t.Fatal(err)
	}
	pinned := want.Pred[name]
	if len(got) != len(pinned) || len(got) == 0 {
		t.Fatalf("%s: %d predictions, %d pinned", name, len(got), len(pinned))
	}
	for i := range pinned {
		if math.Float64bits(got[i]) != math.Float64bits(pinned[i]) {
			t.Fatalf("%s row %d: %v, pinned %v", name, i, got[i], pinned[i])
		}
	}
	return lm
}

// TestSavesWriteLAMB1 checks every save writes lamb1 under model.lamb,
// records the format, and loads bit-identically.
func TestSavesWriteLAMB1(t *testing.T) {
	hy, X := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Format != artifact.FormatLAMB1 {
		t.Fatalf("save format = %q, want lamb1", m.Format)
	}
	entries, err := os.ReadDir(filepath.Join(reg.root, "m", "v0001"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if !slices.Equal(files, []string{"meta.json", "model.lamb"}) {
		t.Fatalf("version directory holds %v, want [meta.json model.lamb]", files)
	}
	fi, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm()&0o044 != 0o044 {
		t.Fatalf("meta.json has mode %v: other users cannot read it", fi.Mode().Perm())
	}
	want := make([]float64, len(X))
	if err := hy.PredictBatchIntoCtx(context.Background(), X, want, 0); err != nil {
		t.Fatal(err)
	}
	lm, err := reg.Load("m", 1)
	if err != nil {
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
}

// TestLegacyRegistrySniffAndCache loads the legacy fixture — model.json
// with no format in meta.json — and checks each version loads to its
// pinned predictions, with the sniffed format cached back into
// meta.json so the second load skips the probe. The hybrid's pinned
// predictions hold only if its analytical model is rebuilt from the
// (workload, machine) metadata exactly as at training time.
func TestLegacyRegistrySniffAndCache(t *testing.T) {
	reg, want := openLegacy(t)
	for _, name := range legacyNames {
		raw, err := os.ReadFile(filepath.Join(reg.root, name, "v0001", "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), `"format"`) {
			t.Fatalf("%s: the fixture's meta.json records a format; it must be pre-codec", name)
		}
		lm := requirePinned(t, reg, want, name, artifact.FormatJSONV1)
		if (lm.Hybrid() != nil) != (name == "grid-hybrid") {
			t.Fatalf("%s: loaded as kind %s", name, lm.Meta.Kind)
		}
		cached, err := reg.readMeta(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Format != artifact.FormatJSONV1 {
			t.Fatalf("%s: cached format = %q, want jsonv1 written back", name, cached.Format)
		}
		requirePinned(t, reg, want, name, artifact.FormatJSONV1)
	}
}

// TestConvertInPlace migrates each legacy version to lamb1 and checks
// the predictions stay bit-identical to the pinned ones, the artifact
// file is swapped, and converting a lamb1 version is a no-op.
func TestConvertInPlace(t *testing.T) {
	reg, want := openLegacy(t)
	for _, name := range legacyNames {
		vdir := filepath.Join(reg.root, name, "v0001")
		meta, err := reg.Convert(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Format != artifact.FormatLAMB1 {
			t.Fatalf("%s: converted format = %q", name, meta.Format)
		}
		if _, err := os.Stat(filepath.Join(vdir, "model.json")); !os.IsNotExist(err) {
			t.Fatalf("%s: old jsonv1 artifact still present after convert: %v", name, err)
		}
		for _, f := range []string{"model.lamb", "meta.json"} {
			fi, err := os.Stat(filepath.Join(vdir, f))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fi.Mode().Perm() != 0o644 {
				t.Fatalf("%s: converted %s has mode %v, want -rw-r--r--", name, f, fi.Mode().Perm())
			}
		}
		requirePinned(t, reg, want, name, artifact.FormatLAMB1)

		before, err := os.ReadFile(filepath.Join(vdir, "model.lamb"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Convert(name, 0); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(filepath.Join(vdir, "model.lamb"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: converting a lamb1 version rewrote its artifact", name)
		}
		requirePinned(t, reg, want, name, artifact.FormatLAMB1)
	}
	info, _, err := reg.ArtifactInfo("grid-hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != artifact.FormatLAMB1 || info.Kind != KindHybrid || info.Trees != 4 {
		t.Fatalf("ArtifactInfo = %+v", info)
	}
	if !strings.HasPrefix(info.Estimator, "hybrid(") {
		t.Fatalf("estimator = %q", info.Estimator)
	}
}

// TestConvertReplacesMeta: Convert replaces meta.json through a temp
// file and a rename, never by rewriting it in place, so a reader that
// opened the old document before the convert still reads all of it —
// as a Load in another process mid-convert would — and the new
// document is complete.
func TestConvertReplacesMeta(t *testing.T) {
	reg, _ := openLegacy(t)
	path := filepath.Join(reg.root, "grid-et", "v0001", "meta.json")
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := reg.Convert("grid-et", 0); err != nil {
		t.Fatal(err)
	}
	held, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, old) {
		t.Fatalf("meta.json was rewritten in place: a reader that opened it before Convert read\n%s\nwant the old document\n%s", held, old)
	}
	meta, err := reg.readMeta("grid-et", 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != artifact.FormatLAMB1 {
		t.Fatalf("meta.json after convert records format %q, want lamb1", meta.Format)
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
	path := filepath.Join(reg.root, "x", "v0001", "model.lamb")
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

// benchRegistry publishes the bench model, fitted on n samples, and
// returns the registry.
func benchRegistry(b testing.TB, n int) *Registry {
	b.Helper()
	reg, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.SaveRegressor(benchModel(b, n), Meta{Name: "bench"}); err != nil {
		b.Fatal(err)
	}
	return reg
}

// BenchmarkColdLoadBinary is the cold-start cost of the artifact plane:
// a lamb1 load is one file mapping, a CRC and one validation pass over
// the mapped records, which become the walk table
// (TestColdLoadAllocationBudget pins its allocation).
func BenchmarkColdLoadBinary(b *testing.B) {
	reg := benchRegistry(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Load("bench", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColdLoadAllocationBudget pins what a lamb1 cold load may
// allocate: 64 KB, whatever the model's size, for the per-tree headers,
// roots and meta.json. The file is mapped, not read, and its records
// are the walk table, so neither is part of the budget: a load that
// copies the artifact into the heap, or packs its nodes into a table of
// its own, breaks the budget. At two processors the load checksums
// beside the decode and checks its records in blocks across both, which
// may cost at most 1 KB more than the same load at one: a fan-out whose
// state grows with the trees or the blocks breaks that bound.
func TestColdLoadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := benchRegistry(t, 800)
	info, _, err := reg.ArtifactInfo("bench", 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Trees != 100 || info.Nodes < 50_000 {
		t.Fatalf("fixture is %d trees / %d nodes, want a 100-tree serving-shape model", info.Trees, info.Nodes)
	}
	const budget = 64 << 10
	const fanOutBudget = 1 << 10
	perLoad := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// A goroutine that ends on another processor is recycled
		// through that processor's free list, so the first few dozen
		// fanned-out loads allocate descriptors that later loads reuse.
		const loads = 20
		for range 64 {
			if _, err := reg.Load("bench", 1); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < loads; i++ {
			if _, err := reg.Load("bench", 1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / loads
	}
	one, two := perLoad(1), perLoad(2)
	t.Logf("cold load allocates %d B at one processor, %d B at two, of a %d B budget", one, two, budget)
	if one > budget || two > budget {
		t.Fatalf("cold load of %d nodes allocates %d B at one processor and %d B at two, budget %d B", info.Nodes, one, two, budget)
	}
	if two > one+fanOutBudget {
		t.Fatalf("cold load allocates %d B at two processors, %d B at one: the fan-out costs more than %d B", two, one, fanOutBudget)
	}
}
