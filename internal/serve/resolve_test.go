package serve

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
)

// publishScaled saves a three-tree forest fitted to scale·(x0 - x1), so
// versions published with different scales predict differently.
func publishScaled(t *testing.T, reg *registry.Registry, name string, scale float64) int {
	t.Helper()
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		X[i] = []float64{float64(i % 11), float64(i % 4)}
		y[i] = scale * (X[i][0] - X[i][1])
	}
	f := ml.NewExtraTrees(3, 1)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	meta, err := reg.SaveRegressor(f, registry.Meta{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return meta.Version
}

func newResolverServer(t *testing.T, dir string) (*Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(reg), reg
}

// TestResolverMonotoneUnderConcurrentSwaps: swaps of every version
// racing in any order leave each reader seeing versions only move
// forward, and the newest wins.
func TestResolverMonotoneUnderConcurrentSwaps(t *testing.T) {
	srv, reg := newResolverServer(t, t.TempDir())
	const versions = 6
	for v := 1; v <= versions; v++ {
		publishScaled(t, reg, "m", float64(v))
	}
	r := &srv.models
	ctx := context.Background()
	s := r.slot("m")
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				if m := r.serving("m"); m != nil {
					if m.Meta.Version < last {
						t.Errorf("served version moved backwards: v%d after v%d", m.Meta.Version, last)
						return
					}
					last = m.Meta.Version
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var swappers sync.WaitGroup
	for g := 0; g < 4; g++ {
		swappers.Add(1)
		go func(seed int64) {
			defer swappers.Done()
			for _, v := range rand.New(rand.NewSource(seed)).Perm(versions) {
				if _, err := r.swapIn(ctx, "m", s, v+1); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	swappers.Wait()
	close(done)
	readers.Wait()
	if m := r.serving("m"); m == nil || m.Meta.Version != versions {
		t.Fatalf("after the swaps the slot serves %v, want v%d", m, versions)
	}
	m, err := r.latest(ctx, "m")
	if err != nil || m.Meta.Version != versions {
		t.Fatalf("latest = %v, %v; want v%d", m, err, versions)
	}
}

// TestResolverNeverServesRolledBack: once a candidate is rolled back it
// stays the newest version on disk, and latest keeps answering with the
// incumbent — through requests and Reload alike.
func TestResolverNeverServesRolledBack(t *testing.T) {
	srv, reg := newResolverServer(t, t.TempDir())
	srv.AttachRollout(rollout.New(reg, online.NewLedger(16), rollout.Config{}))
	r := &srv.models
	ctx := context.Background()
	publishScaled(t, reg, "m", 1)
	if m, err := r.latest(ctx, "m"); err != nil || m.Meta.Version != 1 {
		t.Fatalf("latest = %v, %v; want v1", m, err)
	}
	publishScaled(t, reg, "m", 3)
	// Resolving sees v2 and begins its rollout; latest stays pinned.
	if m, err := r.latest(ctx, "m"); err != nil || m.Meta.Version != 1 {
		t.Fatalf("latest during the rollout = %v, %v; want the v1 incumbent", m, err)
	}
	if err := srv.rollout.ForceRollback("m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if m, err := r.latest(ctx, "m"); err != nil || m.Meta.Version != 1 {
			t.Fatalf("latest after rollback = %v, %v; want v1", m, err)
		}
	}
	if m, err := srv.Reload("m"); err != nil || m.Meta.Version != 1 {
		t.Fatalf("Reload after rollback = %v, %v; want v1", m, err)
	}
	if m := r.serving("m"); m == nil || m.Meta.Version != 1 {
		t.Fatalf("slot holds %v after rollback, want v1", m)
	}
}

// TestResolverInFlightModelSurvivesSwap: a model resolved before a swap
// keeps scoring, unchanged, after the slot has moved on.
func TestResolverInFlightModelSurvivesSwap(t *testing.T) {
	srv, reg := newResolverServer(t, t.TempDir())
	r := &srv.models
	ctx := context.Background()
	x := []float64{7, 1}
	publishScaled(t, reg, "m", 1)
	held, err := r.latest(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	before, err := held.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	publishScaled(t, reg, "m", 5)
	swapped, err := r.latest(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if swapped == held || swapped.Meta.Version != 2 {
		t.Fatalf("latest after publish = v%d, want a new v2", swapped.Meta.Version)
	}
	after, err := held.Predict(ctx, x)
	if err != nil {
		t.Fatalf("held v1 stopped scoring after the swap: %v", err)
	}
	if after != before {
		t.Fatalf("held v1 scores %v after the swap, %v before", after, before)
	}
	if y, err := swapped.Predict(ctx, x); err != nil || y == before {
		t.Fatalf("v2 scores %v (%v), indistinguishable from v1", y, err)
	}
}

// TestResolverReleasesSwappedOutModel: nothing in the resolver keeps a
// swapped-out model alive.
func TestResolverReleasesSwappedOutModel(t *testing.T) {
	srv, reg := newResolverServer(t, t.TempDir())
	r := &srv.models
	ctx := context.Background()
	publishScaled(t, reg, "m", 1)
	m, err := r.latest(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	old := weak.Make(m)
	m = nil
	publishScaled(t, reg, "m", 2)
	if m, err := r.latest(ctx, "m"); err != nil || m.Meta.Version != 2 {
		t.Fatalf("latest = %v, %v; want v2", m, err)
	}
	runtime.GC()
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the swapped-out v1 is still reachable")
	}
}

// TestResolverReleasesSwappedOutMapping: once the resolver lets go of a
// swapped-out version, collection unmaps its artifact, so a daemon that
// hot-swaps on every publish holds one mapping per served version, not
// one per version ever served.
func TestResolverReleasesSwappedOutMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("artifact mappings are Linux-only")
	}
	dir := t.TempDir()
	srv, reg := newResolverServer(t, dir)
	r := &srv.models
	ctx := context.Background()
	publishScaled(t, reg, "m", 1)
	v1 := filepath.Join(dir, "m", "v0001", "model.lamb")
	mapped := func() bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(maps, []byte(v1))
	}
	if m, err := r.latest(ctx, "m"); err != nil || m.Meta.Version != 1 {
		t.Fatalf("latest = %v, %v; want v1", m, err)
	}
	if !mapped() {
		t.Fatal("the served v1 artifact is not mapped")
	}
	publishScaled(t, reg, "m", 2)
	if m, err := r.latest(ctx, "m"); err != nil || m.Meta.Version != 2 {
		t.Fatalf("latest = %v, %v; want v2", m, err)
	}
	for deadline := time.Now().Add(5 * time.Second); mapped(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the swapped-out v1 artifact is still mapped")
		}
		runtime.GC()
	}
}
