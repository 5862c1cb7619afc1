package registry

import (
	"os"
	"runtime"
	"syscall"
)

// stamp is what the cache compares of a held directory handle.
type stamp struct {
	mtime int64 // ns since the epoch
	nlink uint64
}

// fstamp stats an open handle with one fstat and no allocation.
func fstamp(f *os.File) (stamp, error) {
	var st syscall.Stat_t
	err := syscall.Fstat(int(f.Fd()), &st)
	runtime.KeepAlive(f) // the descriptor must outlive the call
	return stamp{mtime: st.Mtim.Nano(), nlink: uint64(st.Nlink)}, err
}
