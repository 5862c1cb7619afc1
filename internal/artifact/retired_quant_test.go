package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lam/internal/lamerr"
)

// Quantised node tables (ml binary kind 9, lamb1 v2 only) were retired
// in PR 26: the tag is reserved and refused, never reused. The files
// under testdata/retired_quant*.lamb are real artifacts of that kind,
// written by the last build that could (a 3-tree forest at 16 bits, a
// hybrid at 8), and pin the refusal.
var retiredQuantFixtures = []struct {
	file string
	opts DecodeOptions
}{
	{"retired_quant16_forest.lamb", DecodeOptions{}},
	{"retired_quant8_hybrid.lamb", DecodeOptions{Analytical: testAM}},
}

func TestRetiredQuantRefused(t *testing.T) {
	for _, fx := range retiredQuantFixtures {
		t.Run(fx.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			requireRefused := func(label string, err error) {
				t.Helper()
				if !errors.Is(err, lamerr.ErrCorruptArtifact) {
					t.Fatalf("%s: got %v, want an error wrapping ErrCorruptArtifact", label, err)
				}
				if !strings.Contains(err.Error(), "quantized") || !strings.Contains(err.Error(), "re-publish") {
					t.Fatalf("%s: error %q does not name quantisation and the remedy", label, err)
				}
			}
			codec, err := Detect(data)
			if err != nil {
				t.Fatal(err)
			}
			_, err = codec.Decode(data, fx.opts)
			requireRefused("Decode", err)
			_, _, err = Inspect(data, fx.opts)
			requireRefused("Inspect", err)

			// Every truncation still fails typed, and never panics.
			for l := 0; l < len(data); l++ {
				if _, err := codec.Decode(data[:l:l], fx.opts); !errors.Is(err, lamerr.ErrCorruptArtifact) {
					t.Fatalf("truncate[:%d]: got %v, want ErrCorruptArtifact", l, err)
				}
			}
		})
	}
}
