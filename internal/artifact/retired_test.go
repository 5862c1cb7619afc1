package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lam/internal/lamerr"
)

// retiredFixtures are real artifacts of every retired kind, written by
// the last builds that could write them, and pin the refusals: the
// quantised node table (ml binary kind 9, lamb1 v2 only; a 3-tree
// forest at 16 bits and a hybrid at 8), the five
// estimators retired with their code (linear regression, k-nearest
// neighbours, gradient boosting, bagging and stacking: binary kinds 3,
// 4, 5, 7 and 8 and their jsonv1 kind strings), each in both codecs,
// and the retired hybrid options: residual and ratio coupling (hybrid
// header coupling 1 and 2, jsonv1 "mode") and a weighted aggregate
// (w = 0.7), each in both codecs. The lamb1 ones were written at
// version 3, the jsonv1 ones by the last jsonv1 writer; the version-1
// hybrid is a residual one too. Every tag stays reserved and is never
// reused. want is what the error must name.
var retiredFixtures = []struct {
	file string
	opts DecodeOptions
	want []string
}{
	{"retired_quant16_forest.lamb", DecodeOptions{}, []string{"quantized", "re-publish"}},
	{"retired_quant8_hybrid.lamb", DecodeOptions{Analytical: testAM}, []string{"quantized", "re-publish"}},
	{"lamb1_v1_linreg.lamb", DecodeOptions{}, []string{`"linreg"`, "retired"}},
	{"lamb1_v1_knn.lamb", DecodeOptions{}, []string{`"knn"`, "retired"}},
	{"lamb1_v1_gbr.lamb", DecodeOptions{}, []string{`"gbr"`, "retired"}},
	{"lamb1_v1_bagging.lamb", DecodeOptions{}, []string{`"bagging"`, "retired"}},
	{"lamb1_v1_stacking.lamb", DecodeOptions{}, []string{`"stacking"`, "retired"}},
	{"golden_linreg.json", DecodeOptions{}, []string{`"linreg"`, "retired"}},
	{"golden_knn.json", DecodeOptions{}, []string{`"knn"`, "retired"}},
	{"golden_gbr.json", DecodeOptions{}, []string{`"gbr"`, "retired"}},
	{"golden_bagging.json", DecodeOptions{}, []string{`"bagging"`, "retired"}},
	{"golden_stacking.json", DecodeOptions{}, []string{`"stacking"`, "retired"}},
	{"retired_residual_hybrid.lamb", DecodeOptions{Analytical: testAM}, []string{`"residual"`, "retired"}},
	{"retired_ratio_hybrid.lamb", DecodeOptions{Analytical: testAM}, []string{`"ratio"`, "retired"}},
	{"retired_weighted_hybrid.lamb", DecodeOptions{Analytical: testAM}, []string{"aggregate weight 0.7", "retired"}},
	{"lamb1_v1_hybrid.lamb", DecodeOptions{Analytical: testAM}, []string{`"residual"`, "retired"}},
	{"retired_residual_hybrid.json", DecodeOptions{Analytical: testAM}, []string{`"residual"`, "retired"}},
	{"retired_ratio_hybrid.json", DecodeOptions{Analytical: testAM}, []string{`"ratio"`, "retired"}},
	{"retired_weighted_hybrid.json", DecodeOptions{Analytical: testAM}, []string{"aggregate weight 0.7", "retired"}},
}

func TestRetiredKindsRefused(t *testing.T) {
	for _, fx := range retiredFixtures {
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
				for _, w := range fx.want {
					if !strings.Contains(err.Error(), w) {
						t.Fatalf("%s: error %q does not name %s", label, err, w)
					}
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

			// Every truncation still fails typed, and never panics. A JSON
			// prefix costs a parse of its own, so jsonv1 strides: 13 bytes,
			// widened so a document gets about 1 200 prefixes.
			step := 1
			if codec.Name() == FormatJSONV1 {
				step = max(13, len(data)/1200)
			}
			for l := 0; l < len(data); l += step {
				if _, err := codec.Decode(data[:l:l], fx.opts); !errors.Is(err, lamerr.ErrCorruptArtifact) {
					t.Fatalf("truncate[:%d]: got %v, want ErrCorruptArtifact", l, err)
				}
			}
		})
	}
}
