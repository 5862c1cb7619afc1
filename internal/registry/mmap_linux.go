package registry

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// mapping owns one read-only file mapping. Decoded trees and ensembles
// whose walk table is the mapped records hold it
// (artifact.DecodeOptions.Owner); once none does, a cleanup unmaps the
// bytes.
type mapping struct{ data []byte }

// mapFile maps a published artifact read-only and shared, its pages
// faulted in up front: the decoded models walk the mapping instead of
// a heap copy of the file, and processes serving one file share its
// page cache. It returns the bytes and their owner; the bytes stay valid
// only while the owner is reachable. An empty file maps to no bytes and
// no owner (mmap refuses a zero length), leaving the codec to report it
// as short.
//
// This relies on published artifacts being immutable (see the package
// doc): truncating a mapped file faults the process that reads it.
func mapFile(path string) ([]byte, any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		return []byte{}, nil, nil
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("%s: %d bytes do not fit the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	m := &mapping{data: data}
	runtime.AddCleanup(m, func(b []byte) { syscall.Munmap(b) }, data)
	return data, m, nil
}
