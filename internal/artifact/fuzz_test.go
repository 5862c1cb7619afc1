//go:build linux

package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// readOnlyCopy copies data into a read-only anonymous mapping, released
// when the test ends: a decoder that writes into its input faults
// instead of passing, as it would on a mapped artifact.
func readOnlyCopy(t *testing.T, data []byte) []byte {
	t.Helper()
	if len(data) == 0 {
		return data
	}
	m, err := syscall.Mmap(-1, 0, len(data), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	copy(m, data)
	if err := syscall.Mprotect(m, syscall.PROT_READ); err != nil {
		t.Fatal(err)
	}
	return m
}

// reframe rewrites a lamb1 header's payload length and the CRC trailer
// to match the bytes, so a mutated payload gets past the framing checks
// and into the structural decoder.
func reframe(data []byte) []byte {
	if len(data) < lamb1HeaderLen+lamb1TrailerLen {
		return data
	}
	out := bytes.Clone(data)
	body := out[:len(out)-lamb1TrailerLen]
	binary.LittleEndian.PutUint64(body[16:24], uint64(len(body)-lamb1HeaderLen))
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crcTable))
	return out
}

// FuzzLAMB1Decode: any bytes either decode to a payload that re-encodes
// — and whose re-encoding decodes and re-encodes to itself — or fail
// with ErrCorruptArtifact. The decoder never panics and never writes
// into its input. With fix set, the input's length field and CRC are
// made consistent first, so mutations reach the payload decoder.
func FuzzLAMB1Decode(f *testing.F) {
	add := func(data []byte) {
		f.Add(data, false)
		f.Add(data, true)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.lamb"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		add(data)
	}
	small := func() ml.Regressor { return ml.NewExtraTrees(3, 1) }
	for _, build := range []func() ml.Regressor{
		func() ml.Regressor { return ml.NewDecisionTree(ml.TreeConfig{MaxDepth: 4, Seed: 1}) },
		small,
		func() ml.Regressor { return &ml.Pipeline{Model: small()} },
	} {
		reg, _ := fitFixture(f, build)
		add(encode(f, lamb1Codec{}, &Payload{Regressor: reg}))
	}
	hy, _ := fitHybrid(f, hybrid.Config{Seed: 1, NewML: small})
	add(encode(f, lamb1Codec{}, &Payload{Hybrid: hy}))

	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix {
			data = reframe(data)
		}
		opts := DecodeOptions{Analytical: testAM}
		p, err := lamb1Codec{}.Decode(readOnlyCopy(t, data), opts)
		if err != nil {
			if !errors.Is(err, lamerr.ErrCorruptArtifact) {
				t.Fatalf("decode failed untyped: %v", err)
			}
			return
		}
		var once bytes.Buffer
		if err := (lamb1Codec{}).Encode(&once, p); err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		again, err := lamb1Codec{}.Decode(readOnlyCopy(t, once.Bytes()), opts)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		var twice bytes.Buffer
		if err := (lamb1Codec{}).Encode(&twice, again); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
