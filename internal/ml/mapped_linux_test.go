package ml

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// mapReadOnly copies data into a read-only anonymous mapping and
// returns its bytes and their owner, which unmaps them once it is
// unreachable, as the registry's file mappings do: a model that reads
// the bytes after its owner went is a fault, and so is a write.
// released reports when the cleanup has run.
func mapReadOnly(t *testing.T, data []byte) (mapped []byte, owner any, released *atomic.Bool) {
	t.Helper()
	m, err := syscall.Mmap(-1, 0, len(data), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	copy(m, data)
	if err := syscall.Mprotect(m, syscall.PROT_READ); err != nil {
		t.Fatal(err)
	}
	released = new(atomic.Bool)
	o := new([16]byte)
	runtime.AddCleanup(o, func(b []byte) {
		syscall.Munmap(b)
		released.Store(true)
	}, m)
	return m, o, released
}

// TestDecodedEnsembleHoldsMapping: a version-3 forest decoded from a
// mapping walks the mapped records, so its ensemble alone must keep the
// mapping alive — with the forest and every member tree dropped, two
// collections leave it mapped and predicting bit-identically — and must
// let it go once the ensemble is dropped too.
func TestDecodedEnsembleHoldsMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 32, 4)
	f := &Forest{NTrees: 30, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bin, err := AppendBinary(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	data, owner, released := mapReadOnly(t, bin)
	m, err := DecodeBinaryVersion(data, BinaryVersionLatest, owner)
	if err != nil {
		t.Fatal(err)
	}
	e := m.(*Forest).compiled
	if unsafe.Pointer(&e.hot[0]) != unsafe.Pointer(&data[len(bin)-16*len(e.hot)-4*len(e.roots)-pad8(len(e.roots), 4)]) {
		t.Fatal("the decoded walk table is not the mapped records")
	}
	data, owner, m = nil, nil, nil
	runtime.GC()
	runtime.GC()
	time.Sleep(10 * time.Millisecond) // cleanups run on their own goroutine
	if released.Load() {
		t.Fatal("the mapping was released while the ensemble still walks it")
	}
	for _, x := range Xq {
		if got, want := e.Predict(x), f.Predict(x); !sameBits(got, want) {
			t.Fatalf("ensemble alone predicts %v, the fitted forest %v", got, want)
		}
	}
	e = nil
	deadline := time.Now().Add(5 * time.Second)
	for !released.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the mapping outlived every model reading it")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestRefitOfMappedModelWritesNothing: refitting a tree or forest
// decoded from a read-only mapping grows a new heap table — a write
// into the mapped records would fault — and predicts what a fresh fit
// does, holding no owner.
func TestRefitOfMappedModelWritesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	X, y := randomRegression(rng, 150, 3)
	X2, y2 := randomRegression(rng, 150, 3)
	for _, build := range []func() Regressor{
		func() Regressor { return NewDecisionTree(TreeConfig{Seed: 4}) },
		func() Regressor { return &Forest{NTrees: 8, Seed: 4} },
	} {
		m := build()
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		bin, err := AppendBinary(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		data, owner, _ := mapReadOnly(t, bin)
		loaded, err := DecodeBinaryVersion(data, BinaryVersionLatest, owner)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Fit(X2, y2); err != nil {
			t.Fatal(err)
		}
		fresh := build()
		if err := fresh.Fit(X2, y2); err != nil {
			t.Fatal(err)
		}
		for _, x := range X {
			if got, want := loaded.Predict(x), fresh.Predict(x); !sameBits(got, want) {
				t.Fatalf("%T: refit predicts %v, a fresh fit %v", m, got, want)
			}
		}
		switch v := loaded.(type) {
		case *DecisionTree:
			if v.nodes.keep != nil {
				t.Fatal("refitted tree still holds the mapping")
			}
		case *Forest:
			if v.compiled.keep != nil || v.trees[0].nodes.keep != nil {
				t.Fatal("refitted forest still holds the mapping")
			}
		}
		runtime.KeepAlive(owner)
	}
}
