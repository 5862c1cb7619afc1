package registry

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/ml"
)

// trainFixture builds a small hybrid model + its train/test split on
// the stencil-grid workload.
func trainFixture(t *testing.T) (*hybrid.Model, [][]float64) {
	t.Helper()
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := experiments.AMByDataset("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return hy, test.X[:50]
}

// TestHybridRoundTrip saves a hybrid model, reloads it through the
// registry, and checks predictions are bit-identical to the in-memory
// model.
func TestHybridRoundTrip(t *testing.T) {
	hy, X := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.SaveHybrid(hy, Meta{
		Name: "grid-hybrid", Workload: "stencil-grid", Machine: "bluewaters",
		TrainSize: 14, TestMAPE: 1.23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 || meta.Kind != KindHybrid || meta.CreatedAt.IsZero() {
		t.Fatalf("bad completed meta: %+v", meta)
	}

	lm, err := reg.Load("grid-hybrid", 0)
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("row %d: registry %v != library %v", i, got[i], want[i])
		}
	}
}

// TestLoadedHybridHonoursWorkers pins Model.Workers as the batch knob
// for both model kinds. A hybrid artifact carries no worker count, so
// a loaded hybrid with Workers == 1 must score a four-block batch
// inline — zero allocations, bit-identical to per-row Predict — even
// where GOMAXPROCS would fan it out. The FMM workload's analytical
// model is allocation-free, so any allocation is the fan-out's.
func TestLoadedHybridHonoursWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bw := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("fmm", bw, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := experiments.AMByDataset("fmm", bw)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.SampleFraction(0.05, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.SaveHybrid(hy, Meta{Name: "fmm-hybrid", Workload: "fmm", Machine: "bluewaters"})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := reg.Load(meta.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	lm.Workers = 1

	X := test.X[:1024] // four 256-row blocks
	out := make([]float64, len(X))
	ctx := context.Background()
	// Count by hand: testing.AllocsPerRun pins GOMAXPROCS to 1, which
	// would hide a fan-out that follows GOMAXPROCS. Warm every P's
	// scratch pools first, so a migrating goroutine finds a pooled block
	// wherever it lands.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, len(X))
			for i := 0; i < 3; i++ {
				if err := lm.PredictBatchInto(ctx, X, buf); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := lm.PredictBatchInto(ctx, X, out); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
		t.Fatalf("Workers = 1 hybrid batch allocates %d per call, want 0 (did it fan out?)", allocs)
	}
	for i, x := range X {
		want, err := hy.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: batch %v != Predict %v", i, out[i], want)
		}
	}
}

// TestVersioning checks auto-increment and explicit-version loads.
func TestVersioning(t *testing.T) {
	hy, _ := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}
	for want := 1; want <= 3; want++ {
		meta, err := reg.SaveHybrid(hy, base)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Version != want {
			t.Fatalf("save %d allocated version %d", want, meta.Version)
		}
	}
	lm, err := reg.Load("m", 2)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Meta.Version != 2 {
		t.Fatalf("loaded version %d, want 2", lm.Meta.Version)
	}
	all, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(all))
	}
}

// TestRegressorRoundTrip saves a fitted pipeline and checks the loaded
// model predicts bit-identically and validates arity.
func TestRegressorRoundTrip(t *testing.T) {
	X := make([][]float64, 120)
	y := make([]float64, 120)
	for i := range X {
		X[i] = []float64{float64(i % 13), float64(i % 7)}
		y[i] = 2*X[i][0] - X[i][1]
	}
	p := &ml.Pipeline{Model: ml.NewExtraTrees(15, 5)}
	if err := p.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(p, Meta{Name: "et-pipe"}); err != nil {
		t.Fatal(err)
	}
	lm, err := reg.Load("et-pipe", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lm.PredictBatch(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got[i] != p.Predict(X[i]) {
			t.Fatalf("row %d: %v != %v", i, got[i], p.Predict(X[i]))
		}
	}
	if _, err := lm.Predict(context.Background(), []float64{1, 2, 3}); !errors.Is(err, lamerr.ErrDimension) {
		t.Fatalf("wrong-arity predict: got %v, want ErrDimension", err)
	}
}

// TestConcurrentSaves races several goroutines saving under one name
// and checks every save lands on a distinct version with none lost.
func TestConcurrentSaves(t *testing.T) {
	hy, _ := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	versions := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			meta, err := reg.SaveHybrid(hy, Meta{Name: "raced", Workload: "stencil-grid", Machine: "bluewaters"})
			versions[i], errs[i] = meta.Version, err
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("save %d: %v", i, errs[i])
		}
		if seen[versions[i]] {
			t.Fatalf("version %d allocated twice", versions[i])
		}
		seen[versions[i]] = true
	}
	latest, err := reg.LatestVersion("raced")
	if err != nil {
		t.Fatal(err)
	}
	if latest != n {
		t.Fatalf("latest = %d, want %d", latest, n)
	}
}

// TestConcurrentSaveStress is the publish-path guard for the online
// retrainer: many goroutines spread over several independent Registry
// handles on the same directory (the cross-process case — in-process
// saveMu does not serialise them, only the rename-retry loop does)
// hammer SaveHybrid on one name. Every save must land on its own
// version, the version sequence must come out dense 1..N, and every
// published version must be fully readable — meta.json consistent with
// its directory and the artifact loadable (no torn publishes).
func TestConcurrentSaveStress(t *testing.T) {
	hy, X := trainFixture(t)
	dir := t.TempDir()
	const handles = 4
	const savesPerHandle = 6
	regs := make([]*Registry, handles)
	for i := range regs {
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = r
	}

	type result struct {
		meta Meta
		err  error
	}
	results := make([]result, handles*savesPerHandle)
	var wg sync.WaitGroup
	for h := 0; h < handles; h++ {
		for s := 0; s < savesPerHandle; s++ {
			wg.Add(1)
			go func(h, s int) {
				defer wg.Done()
				meta, err := regs[h].SaveHybrid(hy, Meta{
					Name: "stress", Workload: "stencil-grid", Machine: "bluewaters",
					TrainSize: 14, TestMAPE: float64(h*savesPerHandle + s),
				})
				results[h*savesPerHandle+s] = result{meta, err}
			}(h, s)
		}
	}
	wg.Wait()

	const total = handles * savesPerHandle
	seen := make(map[int]bool, total)
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("save %d: %v", i, r.err)
		}
		if seen[r.meta.Version] {
			t.Fatalf("version %d allocated twice", r.meta.Version)
		}
		seen[r.meta.Version] = true
	}
	for v := 1; v <= total; v++ {
		if !seen[v] {
			t.Fatalf("version sequence has a hole at v%d", v)
		}
	}
	reg := regs[0]
	if latest, err := reg.LatestVersion("stress"); err != nil || latest != total {
		t.Fatalf("latest = %d (%v), want %d", latest, err, total)
	}
	// No torn meta: List (which reads every meta.json) must see all of
	// them, each internally consistent.
	metas, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != total {
		t.Fatalf("List sees %d versions, want %d (a torn meta.json is skipped)", len(metas), total)
	}
	for _, m := range metas {
		if m.Name != "stress" || m.Kind != KindHybrid || m.CreatedAt.IsZero() {
			t.Fatalf("torn meta: %+v", m)
		}
		if on, err := reg.readMeta(m.Name, m.Version); err != nil || on.Version != m.Version {
			t.Fatalf("meta for v%d reads back as %+v (%v)", m.Version, on, err)
		}
	}
	// And the artifacts serve: spot-check first, middle, last.
	want := make([]float64, len(X[:4]))
	if err := hy.PredictBatchIntoCtx(context.Background(), X[:4], want, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, total / 2, total} {
		lm, err := reg.Load("stress", v)
		if err != nil {
			t.Fatalf("loading v%d: %v", v, err)
		}
		got, err := lm.PredictBatch(context.Background(), X[:4])
		if err != nil {
			t.Fatalf("serving v%d: %v", v, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v%d row %d: %v != %v", v, i, got[i], want[i])
			}
		}
	}
}

// TestVersionDirParsing checks stray directories are ignored and
// 5-digit versions round-trip (the zero-padding is a floor, not a
// ceiling).
func TestVersionDirParsing(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hy, _ := trainFixture(t)
	if _, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}); err != nil {
		t.Fatal(err)
	}
	// Junk that must not parse as versions.
	for _, junk := range []string{"v0001abc", "vx", "notes", ".tmp-v123"} {
		if err := os.MkdirAll(filepath.Join(dir, "m", junk), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// A hand-planted 5-digit version: copy v0001's contents.
	src := filepath.Join(dir, "m", "v0001")
	dst := filepath.Join(dir, "m", "v10000")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := reg.LatestVersion("m")
	if err != nil {
		t.Fatal(err)
	}
	if latest != 10000 {
		t.Fatalf("latest = %d, want 10000", latest)
	}
	meta, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 10001 {
		t.Fatalf("next version = %d, want 10001", meta.Version)
	}
	if _, err := reg.Load("m", 10001); err != nil {
		t.Fatalf("loading v10001: %v", err)
	}
}

// TestLatestVersion covers the cheap latest-resolution path.
func TestLatestVersion(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LatestVersion("missing"); !errors.Is(err, lamerr.ErrUnknownModel) {
		t.Fatalf("missing name: got %v, want ErrUnknownModel", err)
	}
	hy, _ := trainFixture(t)
	for i := 0; i < 2; i++ {
		if _, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := reg.LatestVersion("m")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("latest = %d, want 2", v)
	}
}

// TestPathShapedNamesRejected checks HTTP-supplied names cannot escape
// the registry root: anything failing the name grammar resolves to
// ErrUnknownModel without touching the filesystem outside root.
func TestPathShapedNamesRejected(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(filepath.Join(dir, "registry"))
	if err != nil {
		t.Fatal(err)
	}
	// Plant a version-shaped layout OUTSIDE the registry root; a
	// traversal name must not reach it.
	outside := filepath.Join(dir, "secret", "v0001")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../secret", "..", "a/b", "/etc", ".hidden", "UPPER"} {
		if _, err := reg.Load(name, 0); !errors.Is(err, lamerr.ErrUnknownModel) {
			t.Errorf("Load(%q): got %v, want ErrUnknownModel", name, err)
		}
		if _, err := reg.LatestVersion(name); !errors.Is(err, lamerr.ErrUnknownModel) {
			t.Errorf("LatestVersion(%q): got %v, want ErrUnknownModel", name, err)
		}
	}
}

// TestTypedErrors covers the failure classes.
func TestTypedErrors(t *testing.T) {
	hy, _ := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("nope", 0); !errors.Is(err, lamerr.ErrUnknownModel) {
		t.Fatalf("missing name: got %v, want ErrUnknownModel", err)
	}
	if _, err := reg.SaveHybrid(&hybrid.Model{}, Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}); !errors.Is(err, lamerr.ErrNotFitted) {
		t.Fatalf("untrained hybrid: got %v, want ErrNotFitted", err)
	}
	if _, err := reg.SaveHybrid(hy, Meta{Name: "m"}); err == nil {
		t.Fatal("SaveHybrid without workload/machine metadata succeeded")
	}
	if _, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "bogus", Machine: "bluewaters"}); !errors.Is(err, lamerr.ErrUnknownWorkload) {
		t.Fatalf("bogus workload: got %v, want ErrUnknownWorkload", err)
	}
	if _, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "stencil-grid", Machine: "bogus"}); !errors.Is(err, lamerr.ErrUnknownMachine) {
		t.Fatalf("bogus machine: got %v, want ErrUnknownMachine", err)
	}
	if _, err := reg.SaveHybrid(hy, Meta{Name: "Bad Name!", Workload: "stencil-grid", Machine: "bluewaters"}); err == nil {
		t.Fatal("invalid name accepted")
	}
	meta, err := reg.SaveHybrid(hy, Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("m", meta.Version+5); !errors.Is(err, lamerr.ErrUnknownModel) {
		t.Fatalf("missing version: got %v, want ErrUnknownModel", err)
	}
}
