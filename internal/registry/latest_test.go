package registry

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"lam/internal/lamerr"
	"lam/internal/ml"
)

// tinyForest is a three-tree forest that fits in microseconds: these
// tests exercise version resolution, not models.
func tinyForest(t testing.TB) *ml.Forest {
	t.Helper()
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		X[i] = []float64{float64(i % 11), float64(i % 4)}
		y[i] = X[i][0] - X[i][1]
	}
	f := ml.NewExtraTrees(3, 1)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return f
}

func publish(t testing.TB, reg *Registry, name string) int {
	t.Helper()
	meta, err := reg.SaveRegressor(tinyForest(t), Meta{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return meta.Version
}

// backdate moves the mtimes of paths an hour into the past, out of the
// racy window, so the cache may trust a scan of them without the test
// sleeping.
func backdate(t testing.TB, paths ...string) {
	t.Helper()
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range paths {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

func wantLatest(t testing.TB, reg *Registry, name string, want int) {
	t.Helper()
	got, err := reg.LatestVersion(name)
	if err != nil || got != want {
		t.Fatalf("LatestVersion(%q) = %d, %v; want %d", name, got, err, want)
	}
}

// cachedNames counts the names the latest cache holds an entry for.
func cachedNames(reg *Registry) int {
	n := 0
	reg.latest.entries.Range(func(any, any) bool { n++; return true })
	return n
}

// TestLatestVersionWarmReadsNoDirectory: once a name's directory is out
// of the racy window, LatestVersion answers from the cache. ReadDir
// always allocates, so zero allocations means no directory was read.
func TestLatestVersionWarmReadsNoDirectory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	publish(t, reg, "m")
	backdate(t, dir, filepath.Join(dir, "m"))
	wantLatest(t, reg, "m", 2)
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := reg.LatestVersion("m"); err != nil || v != 2 {
			t.Fatalf("LatestVersion = %d, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm LatestVersion allocates %.1f times, want 0 (it read the directory)", allocs)
	}
}

// TestLatestVersionSeesOtherInstance: a second Registry on the same
// directory publishes, and the first sees it on its next call.
func TestLatestVersionSeesOtherInstance(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, a, "m")
	backdate(t, dir, filepath.Join(dir, "m"))
	wantLatest(t, a, "m", 1)
	publish(t, b, "m")
	wantLatest(t, a, "m", 2)
}

// TestLatestVersionInProcessSave: a save through the same Registry
// drops the name's entry, so the next call rescans even if the name
// directory's mtime reads as the cached one.
func TestLatestVersionInProcessSave(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	nameDir := filepath.Join(dir, "m")
	backdate(t, dir, nameDir)
	wantLatest(t, reg, "m", 1)
	cached, err := os.Stat(nameDir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	if err := os.Chtimes(nameDir, cached.ModTime(), cached.ModTime()); err != nil {
		t.Fatal(err)
	}
	wantLatest(t, reg, "m", 2)
}

// TestLatestVersionSameTickPublish is the racy-window rule: a publish
// that leaves the name directory's mtime where the cached scan saw it
// (the same coarse timestamp tick) is still seen, because a scan made
// within two seconds of that mtime is never trusted.
func TestLatestVersionSameTickPublish(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, a, "m")
	wantLatest(t, a, "m", 1)
	nameDir := filepath.Join(dir, "m")
	cached, err := os.Stat(nameDir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, b, "m")
	if err := os.Chtimes(nameDir, cached.ModTime(), cached.ModTime()); err != nil {
		t.Fatal(err)
	}
	wantLatest(t, a, "m", 2)
}

// TestLatestVersionRemovedName: rm -rf of a cached name's directory
// makes it unknown, and drops its entry.
func TestLatestVersionRemovedName(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	nameDir := filepath.Join(dir, "m")
	backdate(t, dir, nameDir)
	wantLatest(t, reg, "m", 1)
	root, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(nameDir); err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" {
		// Put both mtimes back where the cache saw them (the backdate is
		// whole seconds, so microsecond futimes restores it exactly): the
		// held handle's link count of 0 alone must catch the removal.
		v, _ := reg.latest.entries.Load("m")
		held := v.(*latestEntry).dir
		tv := syscall.NsecToTimeval(root.ModTime().UnixNano())
		if err := syscall.Futimes(int(held.Fd()), []syscall.Timeval{tv, tv}); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(dir, root.ModTime(), root.ModTime()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.LatestVersion("m"); !errors.Is(err, lamerr.ErrUnknownModel) {
		t.Fatalf("removed name: got %v, want ErrUnknownModel", err)
	}
	if n := cachedNames(reg); n != 0 {
		t.Fatalf("cache holds %d names after the only one was removed", n)
	}
}

// TestLatestVersionNameReplacedByRename: a name directory swapped for
// another by rename serves the new directory's versions, even when the
// newcomer carries the mtime the cache recorded — the root's mtime
// tells.
func TestLatestVersionNameReplacedByRename(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	staging, err := Open(filepath.Join(dir, ".staging"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		publish(t, staging, "m")
	}
	nameDir := filepath.Join(dir, "m")
	backdate(t, dir, nameDir)
	wantLatest(t, reg, "m", 1)
	cached, err := os.Stat(nameDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(nameDir, filepath.Join(dir, ".retired-m")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, ".staging", "m"), nameDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(nameDir, cached.ModTime(), cached.ModTime()); err != nil {
		t.Fatal(err)
	}
	wantLatest(t, reg, "m", 3)
	// Out of the racy window, the entry the cache trusts must watch the
	// newcomer, not the retired directory it held a handle on.
	backdate(t, dir, nameDir)
	wantLatest(t, reg, "m", 3)
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, other, "m")
	wantLatest(t, reg, "m", 4)
}

// TestLatestVersionUnknownNamesLeaveCacheEmpty: names arriving from
// HTTP that do not exist — or exist with no versions — never grow the
// cache.
func TestLatestVersionUnknownNamesLeaveCacheEmpty(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	names := []string{"empty", "../escape", "UPPER"}
	for i := 0; i < 10000; i++ {
		names = append(names, fmt.Sprintf("nope-%d", i))
	}
	for _, name := range names {
		if _, err := reg.LatestVersion(name); !errors.Is(err, lamerr.ErrUnknownModel) {
			t.Fatalf("LatestVersion(%q): got %v, want ErrUnknownModel", name, err)
		}
	}
	if n := cachedNames(reg); n != 0 {
		t.Fatalf("%d unknown names left %d cache entries, want 0", len(names), n)
	}
}

// TestLatestVersionConcurrentWithSave races readers against in-process
// saves (run it under -race): every reader sees the version move
// forward only, and the last publish is seen.
func TestLatestVersionConcurrentWithSave(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	const saves = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := reg.LatestVersion("m")
				if err != nil {
					t.Error(err)
					return
				}
				if v < last {
					t.Errorf("latest moved backwards: v%d after v%d", v, last)
					return
				}
				last = v
			}
		}()
	}
	for i := 0; i < saves; i++ {
		publish(t, reg, "m")
	}
	close(done)
	wg.Wait()
	wantLatest(t, reg, "m", saves+1)
}

// publishTarget is set when this test binary runs as the publishing
// process of TestLatestVersionSeesOtherProcess: the registry root comes
// after "--" on the command line.
func publishTarget() string {
	if args := flag.Args(); len(args) == 1 {
		return args[0]
	}
	return ""
}

// TestPublishHelperProcess is the other process's half of
// TestLatestVersionSeesOtherProcess; run directly it does nothing.
func TestPublishHelperProcess(t *testing.T) {
	dir := publishTarget()
	if dir == "" {
		return
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
}

// TestLatestVersionSeesOtherProcess: a version published by a real
// second process (this test binary re-executed) is seen on the next
// call — the contract lam-model and lam-predict -registry rely on when
// they publish into a directory lam-serve is serving.
func TestLatestVersionSeesOtherProcess(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "m")
	backdate(t, dir, filepath.Join(dir, "m"))
	wantLatest(t, reg, "m", 1)
	cmd := exec.Command(os.Args[0], "-test.run=^TestPublishHelperProcess$", "--", dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("publishing process: %v\n%s", err, out)
	}
	wantLatest(t, reg, "m", 2)
}
