//go:build linux

package artifact

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// maxFuzzArity bounds the row a decoded fuzz input is scored on. A
// decoded arity can reach MaxInt32 features; past this one (32 KiB a
// row, far past anything a fit writes) no row is allocated and only
// the decode and re-encode contract is checked.
const maxFuzzArity = 4096

// requireDecodeContract is both codecs' fuzz contract for one input:
// the bytes fail with ErrCorruptArtifact, or they decode to a payload
// that scores one row of its own arity without panicking and whose
// lamb1 encoding — the one format written — decodes and re-encodes to
// itself. Either way the decode allocates within
// TestDecodeAllocationBounded's bound for the input's length (checked
// without -race, which perturbs the counts). The decoder reads a
// read-only mapping, so a write into its input faults.
func requireDecodeContract(t *testing.T, c Codec, data []byte) {
	t.Helper()
	opts := DecodeOptions{Analytical: testAM}
	p, err := c.Decode(readOnlyCopy(t, data), opts)
	if err != nil && !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("decode failed untyped: %v", err)
	}
	if !raceEnabled {
		if got, bound := decodeAllocs(c, data), decodeAllocBound(c, len(data)); got > bound {
			t.Fatalf("%s decode of %d bytes allocates %d, bound %d", c.Name(), len(data), got, bound)
		}
	}
	if err != nil {
		return
	}
	scoreOneRow(t, p)
	var once bytes.Buffer
	if err := (lamb1Codec{}).Encode(&once, p); err != nil {
		t.Fatalf("decoded payload does not encode in lamb1: %v", err)
	}
	again, err := lamb1Codec{}.Decode(readOnlyCopy(t, once.Bytes()), opts)
	if err != nil {
		t.Fatalf("lamb1 encoding does not decode: %v", err)
	}
	var twice bytes.Buffer
	if err := (lamb1Codec{}).Encode(&twice, again); err != nil {
		t.Fatalf("second re-encode: %v", err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatal("re-encoding is not a fixed point")
	}
}

// scoreOneRow predicts one row of p's decoded arity — what a server
// does with a loaded version on its first request. The answer may be a
// value or an error; a panic fails the input.
func scoreOneRow(t *testing.T, p *Payload) {
	var n int
	if p.Hybrid != nil {
		n = p.Hybrid.NumFeatures()
	} else {
		n, _ = ml.NumFeaturesOf(p.Regressor)
	}
	if n > maxFuzzArity {
		return
	}
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i) - 0.5
	}
	if p.Hybrid != nil {
		_, _ = p.Hybrid.Predict(row)
	} else {
		_, _ = ml.PredictCtx(t.Context(), p.Regressor, row)
	}
}

// fuzzSeedModels are small fresh fits of every live kind, the seeds
// the lamb1 fuzz target adds beside the committed files.
func fuzzSeedModels(f *testing.F) []*Payload {
	small := func() ml.Regressor { return ml.NewExtraTrees(3, 1) }
	var out []*Payload
	for _, build := range []func() ml.Regressor{
		func() ml.Regressor { return ml.NewDecisionTree(ml.TreeConfig{MaxDepth: 4, Seed: 1}) },
		small,
		func() ml.Regressor { return &ml.Pipeline{Model: small()} },
	} {
		reg, _ := fitFixture(f, build)
		out = append(out, &Payload{Regressor: reg})
	}
	hy, _ := fitHybrid(f, hybrid.Config{Seed: 1, NewML: small})
	return append(out, &Payload{Hybrid: hy})
}

// addFileSeeds adds every committed testdata file matching pattern,
// but for the goldens' prediction sidecars.
func addFileSeeds(f *testing.F, pattern string, add func([]byte)) {
	files, err := filepath.Glob(filepath.Join("testdata", pattern))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, ".pred.json") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		add(data)
	}
}

// FuzzLAMB1Decode holds the lamb1 decoder to requireDecodeContract.
// With fix set, the input's length field and CRC are made consistent
// first, so mutations reach the payload decoder. Seeds: the committed
// artifacts of every version — among them the version-3 hybrid, whose
// nested ML payload starts at byte 56, an odd word, so its records are
// read in place at 8- but not 16-byte alignment — the retired-quantised
// and retired-estimator artifacts, and fresh version-3 ones.
func FuzzLAMB1Decode(f *testing.F) {
	add := func(data []byte) {
		f.Add(data, false)
		f.Add(data, true)
	}
	addFileSeeds(f, "*.lamb", add)
	for _, p := range fuzzSeedModels(f) {
		add(encode(f, lamb1Codec{}, p))
	}
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix {
			data = reframe(data)
		}
		requireDecodeContract(t, lamb1Codec{}, data)
	})
}

// FuzzJSONV1Decode holds the jsonv1 decoder, which has no checksum to
// stop a damaged document before the structural checks, to
// requireDecodeContract. Nothing writes jsonv1 any more, so every seed
// is a committed file: the four live kinds, the five retired
// estimators and the three retired hybrid options as refusal inputs,
// and each arityCases mutation of a live golden, one edit away from
// decoding.
func FuzzJSONV1Decode(f *testing.F) {
	add := func(data []byte) { f.Add(data) }
	addFileSeeds(f, "golden_*.json", add)
	addFileSeeds(f, "retired_*.json", add)
	for _, tc := range arityCases {
		golden, _ := readGolden(f, tc.golden)
		add(mutateJSON(f, golden, tc.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireDecodeContract(t, jsonv1Codec{}, data)
	})
}
