package registry

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"lam/internal/artifact"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// artifactMapped reports whether path is mapped into this process. It
// skips the test off Linux, where loads read the file into the heap.
func artifactMapped(t *testing.T, path string) bool {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("artifact mappings are Linux-only")
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(maps, []byte(path))
}

// collect runs the garbage collector until two sentinels, each dropped
// after the previous one's cleanup ran, have had their cleanups run:
// the second is queued behind every cleanup the first round queued (a
// mapping's unmap), and cleanups run in turn on one goroutine.
func collect(t *testing.T) {
	t.Helper()
	for range 2 {
		ran := make(chan struct{})
		sentinel := new([16]byte)
		runtime.AddCleanup(sentinel, func(ch chan struct{}) { close(ch) }, ran)
		sentinel = nil
		deadline := time.Now().Add(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			runtime.GC()
			select {
			case <-ran:
				done = true
			case <-time.After(time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatal("a dropped sentinel's cleanup never ran")
			}
		}
	}
}

// replaceFile writes data over a published file the way publish and
// Convert do, through a temp file renamed into place: a mapping of the
// old file keeps its bytes, where an in-place rewrite would change or
// truncate them under a live model.
func replaceFile(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// encoded returns the lamb1 bytes of p, reading every node column.
func encoded(t *testing.T, p *artifact.Payload) []byte {
	t.Helper()
	codec, err := artifact.ByName(artifact.FormatLAMB1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadedComponentsOutliveModel keeps only what Model.Regressor and
// Model.Hybrid hand out, drops the Model and collects: the components
// must still predict every row bit-identically and re-encode to the
// published bytes, because their trees and ensembles, not the Model,
// own the artifact's mapping: every predict walks the mapped records,
// and re-encoding copies them.
func TestLoadedComponentsOutliveModel(t *testing.T) {
	hy, X := trainFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, Meta{Name: "hy", Workload: "stencil-grid", Machine: "bluewaters"}); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = x[0] - 2*x[1]
	}
	for name, fit := range map[string]ml.Regressor{
		"tree":   ml.NewDecisionTree(ml.TreeConfig{Seed: 1}),
		"forest": &ml.Pipeline{Model: ml.NewExtraTrees(20, 1)},
	} {
		if err := fit.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.SaveRegressor(fit, Meta{Name: name}); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range []string{"hy", "tree", "forest"} {
		path := filepath.Join(reg.root, name, "v0001", "model.lamb")
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := reg.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.PredictBatch(context.Background(), X)
		if err != nil {
			t.Fatal(err)
		}
		payload := &artifact.Payload{Hybrid: m.Hybrid(), Regressor: m.Regressor()}
		m = nil
		collect(t)
		if !artifactMapped(t, path) {
			t.Fatalf("%s: the mapping was released while a component still aliases it", name)
		}
		for i, x := range X {
			var got float64
			if payload.Hybrid != nil {
				got, err = payload.Hybrid.PredictCtx(context.Background(), x)
			} else {
				got, err = ml.PredictCtx(context.Background(), payload.Regressor, x)
			}
			if err != nil || got != want[i] {
				t.Fatalf("%s row %d: %v (%v) after the Model was dropped, %v before", name, i, got, err, want[i])
			}
		}
		if !bytes.Equal(encoded(t, payload), file) {
			t.Fatalf("%s: re-encoding the held component no longer gives the published bytes", name)
		}
		runtime.KeepAlive(payload)
	}
}

// TestLoadedWalkTableSurvivesGC: a version-3 load's walk table is the
// mapping itself, so every predict reads mapped pages. Keeping only what
// Model.Regressor or Model.Hybrid hands out, two collections must leave
// each component predicting a batch — the large bench model takes the
// tree-major walk — bit-identically; a component that let the mapping
// go would fault here instead.
func TestLoadedWalkTableSurvivesGC(t *testing.T) {
	reg := benchRegistry(t, 300)
	hy, X := trainFixture(t)
	if _, err := reg.SaveHybrid(hy, Meta{Name: "hy", Workload: "stencil-grid", Machine: "bluewaters"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	for name, X := range map[string][][]float64{"bench": rows, "hy": X} {
		m, err := reg.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.PredictBatch(context.Background(), X)
		if err != nil {
			t.Fatal(err)
		}
		regressor, hybrid := m.Regressor(), m.Hybrid()
		m = nil
		runtime.GC()
		runtime.GC()
		got := make([]float64, len(X))
		if hybrid != nil {
			err = hybrid.PredictBatchIntoCtx(context.Background(), X, got, 1)
		} else {
			err = ml.PredictBatchIntoCtx(context.Background(), regressor, X, got, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s row %d: %v after two collections, %v before", name, i, got[i], want[i])
			}
		}
	}
}

// TestMappingReleasedWithLastReference: once nothing references a
// loaded model, collection unmaps its artifact.
func TestMappingReleasedWithLastReference(t *testing.T) {
	reg := benchRegistry(t, 300)
	path := filepath.Join(reg.root, "bench", "v0001", "model.lamb")
	m, err := reg.Load("bench", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !artifactMapped(t, path) {
		t.Fatal("a loaded model's artifact is not mapped")
	}
	if _, err := m.Predict(context.Background(), make([]float64, 6)); err != nil {
		t.Fatal(err)
	}
	m = nil
	deadline := time.Now().Add(5 * time.Second)
	for artifactMapped(t, path) {
		if time.Now().After(deadline) {
			t.Fatal("the artifact is still mapped after every reference was dropped")
		}
		collect(t)
	}
}

// TestEmptyArtifactIsCorrupt: a 0-byte model.lamb has nothing to map;
// it must fail as a short artifact, not with mmap's EINVAL.
func TestEmptyArtifactIsCorrupt(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "e")
	replaceFile(t, filepath.Join(reg.root, "e", "v0001", "model.lamb"), nil)
	_, err = reg.Load("e", 1)
	if !errors.Is(err, lamerr.ErrCorruptArtifact) || !strings.Contains(err.Error(), "short artifact") {
		t.Fatalf("load of an empty artifact: got %v, want a short-artifact ErrCorruptArtifact", err)
	}
	if _, _, err := reg.ArtifactInfo("e", 1); !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("info on an empty artifact: got %v, want ErrCorruptArtifact", err)
	}
}

// TestFailedLoadJoinsTheCRC: a large artifact whose payload the decoder
// refuses at its first word, under a CRC that matches, fails Load; the
// failed load's mapping is released by the next two collections, and a
// load of a good version after them loads and predicts, ten times over.
// Whether Decode joined its CRC before returning is left to
// TestDecodeReturnsAfterTheCRC in internal/artifact, which unmaps the
// input the moment Decode returns: here the collections come too late
// to catch a CRC still reading.
func TestFailedLoadJoinsTheCRC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	model := benchModel(t, 800)
	for range 2 {
		if _, err := reg.SaveRegressor(model, Meta{Name: "bench"}); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(reg.root, "bench", "v0002", "model.lamb")
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 1<<20 {
		t.Fatalf("artifact is %d bytes, want a large one of 1 MB or more", len(data))
	}
	// An unknown model kind in the payload's first word, under a trailer
	// that matches it.
	binary.LittleEndian.PutUint64(data[24:], 99)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	replaceFile(t, bad, data)

	x := make([]float64, 6)
	for range 10 {
		if _, err := reg.Load("bench", 2); !errors.Is(err, lamerr.ErrCorruptArtifact) {
			t.Fatalf("load of the corrupt version: got %v, want ErrCorruptArtifact", err)
		}
		collect(t)
		if artifactMapped(t, bad) {
			t.Fatal("the failed load's mapping outlived two collections")
		}
		m, err := reg.Load("bench", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Predict(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
}
