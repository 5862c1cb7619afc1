package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// jsonv1AllocFactor bounds what a jsonv1 decode allocates per input
// byte, beyond jsonv1AllocBase for any input. encoding/json buffers the
// stream, each nested envelope (hybrid, pipeline, forest) holds its
// payload as a copied RawMessage, and every node passes through a
// 48-byte document struct before the tree is packed, so a document
// costs up to 15 times its size (the committed hybrid golden); the
// bound is that this stays a constant multiple.
const (
	jsonv1AllocFactor = 20
	jsonv1AllocBase   = 16 << 10
)

// decodeAllocBound is what one decode of l input bytes may allocate,
// whatever the bytes: l + 64 KB for lamb1 (a legacy version packs a
// 16-byte record per node of at least 28 input bytes, and a misaligned
// buffer is copied once), and jsonv1AllocFactor·l + jsonv1AllocBase for
// jsonv1.
func decodeAllocBound(c Codec, l int) uint64 {
	if c.Name() == FormatLAMB1 {
		return uint64(l) + 64<<10
	}
	return jsonv1AllocFactor*uint64(l) + jsonv1AllocBase
}

// lamb1V3AllocBound is what a decode of a well-formed lamb1 version-3
// artifact in an aligned buffer may allocate, whatever its size: its
// records are read in place as the walk table, so only the per-tree
// headers (configs, importances, roots) and the model's structs are
// allocated.
const lamb1V3AllocBound = 64 << 10

// decodeAllocs returns the bytes one Decode of data allocates,
// averaged over a few runs; the verdict does not matter.
func decodeAllocs(c Codec, data []byte) uint64 {
	const runs = 4
	opts := DecodeOptions{Analytical: testAM}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = c.Decode(data, opts)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDecodeAllocationBounded holds both decoders to input-bounded
// allocation over the committed artifacts — the fuzz targets' file
// seeds: the lamb1 files, the jsonv1 goldens (live kinds and retired
// refusal inputs) and the goldens re-encoded as lamb1, each held to
// decodeAllocBound, and every version-3 artifact among them to the
// constant lamb1V3AllocBound (the inputs are heap buffers, so aligned).
// requireDecodeContract holds every fuzzed input to decodeAllocBound.
func TestDecodeAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	type input struct {
		name  string
		codec Codec
		data  []byte
	}
	var inputs []input
	for _, pattern := range []string{"*.lamb", "golden_*.json"} {
		files, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, ".pred.json") {
				continue
			}
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Detect(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inputs = append(inputs, input{filepath.Base(name), c, data})
			if c.Name() != FormatJSONV1 {
				continue
			}
			if p, err := c.Decode(data, DecodeOptions{Analytical: testAM}); err == nil {
				var buf bytes.Buffer
				if err := (lamb1Codec{}).Encode(&buf, p); err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, input{filepath.Base(name) + " as lamb1", lamb1Codec{}, buf.Bytes()})
			}
		}
	}
	if len(inputs) < 20 {
		t.Fatalf("only %d committed inputs found", len(inputs))
	}
	for _, in := range inputs {
		l := uint64(len(in.data))
		bound := decodeAllocBound(in.codec, len(in.data))
		if in.codec.Name() == FormatLAMB1 && lamb1FormatVersion(in.data) == lamb1VersionLatest {
			bound = lamb1V3AllocBound
		}
		got := decodeAllocs(in.codec, in.data)
		t.Logf("%-32s %s %8d B input, %8d B allocated (%.2f per byte, bound %d)", in.name, in.codec.Name(), l, got, float64(got)/float64(l), bound)
		if got > bound {
			t.Errorf("%s: %s decode of %d bytes allocates %d, bound %d", in.name, in.codec.Name(), l, got, bound)
		}
	}
}
