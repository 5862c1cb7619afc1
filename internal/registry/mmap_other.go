//go:build !linux

package registry

import "os"

// mapFile reads a published artifact into the heap. Off Linux there is
// no mapping: a version-3 model's walk table aliases the buffer, which
// keeps itself alive, so there is no owner.
func mapFile(path string) ([]byte, any, error) {
	data, err := os.ReadFile(path)
	return data, nil, err
}
