//go:build !linux

package registry

import "os"

// stamp is what the cache compares of a held directory handle.
type stamp struct {
	mtime int64 // ns since the epoch
	nlink uint64
}

// fstamp stats an open handle. Off Linux it goes through os.File.Stat,
// which allocates, and cannot see a deleted directory's link count; the
// root's mtime still catches a removed name.
func fstamp(f *os.File) (stamp, error) {
	fi, err := f.Stat()
	if err != nil {
		return stamp{}, err
	}
	return stamp{mtime: fi.ModTime().UnixNano(), nlink: 1}, nil
}
