package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lam/internal/lamerr"
)

// racyWindow is how close to a scan's start a directory's mtime may be
// before the scan is never trusted (git's racy-index rule). Filesystem
// timestamps are coarse: a version published in the same clock tick as
// the scan leaves the mtime the scan recorded unchanged, so only a scan
// that began well after the last change can vouch for the directory.
const racyWindow = 2 * time.Second

// latestEntry is one name's last directory scan, with what a single
// fstat of each held handle must still say for it to be current.
type latestEntry struct {
	// dir is a read-only handle on <root>/<name>. It is never closed
	// explicitly: a concurrent reader may be stat-ing it, so a replaced
	// handle is left to the garbage collector.
	dir       *os.File
	dirMtime  int64 // ns since the epoch, read before the scan
	rootMtime int64
	version   int
	// racy marks a scan that began within racyWindow of either mtime.
	racy bool
}

// latestCache answers LatestVersion without reading directories. It
// holds entries only for names with at least one version, so names
// that do not exist never grow it.
type latestCache struct {
	rootOnce sync.Once
	root     *os.File // read-only handle on the registry root
	rootErr  error
	entries  sync.Map // name → *latestEntry
}

// LatestVersion resolves the newest published version number of a
// name; a missing name wraps lamerr.ErrUnknownModel. A warm call reads
// no directory and allocates nothing: it answers from the name's last
// scan after one fstat each of the registry root and the name
// directory, held open. Publishing renames a version directory into
// the name directory, which moves that directory's mtime, and removing
// or replacing a name directory moves the root's; either change, a
// deleted name directory, or an in-process save of the name makes the
// next call rescan. A scan that began within two seconds of either
// mtime is never trusted, because a publish in the same timestamp tick
// would leave the mtime unchanged; so for two seconds after a publish
// every call still scans. A version another process publishes into a
// shared registry directory is therefore seen on the very next call.
// This relies on a local filesystem's mtimes: network filesystems that
// cache attributes may delay it.
func (r *Registry) LatestVersion(name string) (int, error) {
	c := &r.latest
	if v, ok := c.entries.Load(name); ok {
		e := v.(*latestEntry)
		if !e.racy && c.current(e) {
			return e.version, nil
		}
		return r.scanLatest(name, e)
	}
	return r.scanLatest(name, nil)
}

// current reports whether nothing a scan depends on has changed since e
// was recorded.
func (c *latestCache) current(e *latestEntry) bool {
	root, err := fstamp(c.root)
	if err != nil || root.mtime != e.rootMtime {
		return false
	}
	dir, err := fstamp(e.dir)
	return err == nil && dir.nlink > 0 && dir.mtime == e.dirMtime
}

// scanLatest reads name's directory and records the result. old is the
// entry being replaced (nil if none); its handle is reused, and checked
// to still be the directory at name's path only when the new entry is
// to be trusted — a racy entry never is, so the rescans a fresh publish
// causes cost two fstats beside the directory read.
func (r *Registry) scanLatest(name string, old *latestEntry) (int, error) {
	c := &r.latest
	c.rootOnce.Do(func() { c.root, c.rootErr = os.Open(r.root) })
	if c.rootErr != nil || !nameRE.MatchString(name) {
		// No root handle, no cache; a name failing the grammar never
		// touches the filesystem (versionNumbers refuses it).
		return r.resolveVersion(name, 0)
	}
	start := time.Now().UnixNano()
	root, err := fstamp(c.root)
	if err != nil {
		return r.resolveVersion(name, 0)
	}
	var dir *os.File
	if old != nil {
		dir = old.dir
	}
	// Stamp before reading: a change during the scan then shows as a
	// newer mtime on the next call, or keeps the entry racy.
	var st stamp
	var racy bool
	for {
		if dir == nil {
			if dir, err = os.Open(filepath.Join(r.root, name)); err != nil {
				c.entries.Delete(name)
				if os.IsNotExist(err) {
					return 0, fmt.Errorf("registry: %w: %q", lamerr.ErrUnknownModel, name)
				}
				return 0, fmt.Errorf("registry: %w", err)
			}
		}
		if st, err = fstamp(dir); err != nil {
			err = fmt.Errorf("registry: %w", err)
			break
		}
		racy = start-max(st.mtime, root.mtime) < int64(racyWindow)
		if racy || old == nil || dir != old.dir || r.isNameDir(name, dir) {
			break
		}
		dir = nil // the held handle is stale: reopen by path
	}
	var versions []int
	if err == nil {
		versions, err = r.versionNumbers(name)
	}
	if err != nil || len(versions) == 0 {
		c.entries.Delete(name)
		if old == nil || dir != old.dir {
			dir.Close() // never published: no reader holds it
		}
		if err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("registry: %w: %q", lamerr.ErrUnknownModel, name)
	}
	e := latestEntry{
		dir:       dir,
		dirMtime:  st.mtime,
		rootMtime: root.mtime,
		version:   versions[len(versions)-1],
		racy:      racy,
	}
	if old == nil || e != *old {
		stored := e
		c.entries.Store(name, &stored)
	}
	return e.version, nil
}

// isNameDir reports whether dir is still open on the directory at
// name's path.
func (r *Registry) isNameDir(name string, dir *os.File) bool {
	fi, err := os.Stat(filepath.Join(r.root, name))
	if err != nil {
		return false
	}
	held, err := dir.Stat()
	return err == nil && os.SameFile(fi, held)
}
