package artifact

import (
	"testing"

	"lam/internal/hybrid"
	"lam/internal/ml"
)

// Version-1 decode regression: artifacts written before the implicit-left
// node layout (PR 8) carry explicit left-child arrays in every tree body
// and a version-1 lamb1 header. Those files must keep decoding forever,
// bit-identically. The version-1 writer is gone from the code base; the
// bytes it wrote for each fixture are committed under
// testdata/lamb1_v1_*.lamb (written by the last build that had it, PR 23)
// and are the compatibility contract.

// TestLamb1V1Decode checks every fixture's committed version-1 artifact
// decodes to the predictions pinned beside the jsonv1 goldens and to a
// fresh fit's, bit for bit, and that Inspect reports the legacy
// explicit-children node layout for it.
func TestLamb1V1Decode(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			_, want := readGolden(t, fx.name)

			info, decoded, err := Inspect(readLamb1Fixture(t, fx.name, 1), DecodeOptions{})
			if err != nil {
				t.Fatalf("v1 Inspect: %v", err)
			}
			requireBitIdentical(t, "lamb1-v1 vs golden", want.Pred, predict(t, decoded, want.X))
			reg, probe := fitFixture(t, fx.build)
			requireBitIdentical(t, "lamb1-v1 vs fresh fit",
				predict(t, &Payload{Regressor: reg}, probe), predict(t, decoded, probe))
			if info.Format != FormatLAMB1 {
				t.Fatalf("format %q, want lamb1", info.Format)
			}
			if info.Trees > 0 && info.NodeLayout != "explicit-children" {
				t.Fatalf("v1 node layout %q, want explicit-children", info.NodeLayout)
			}
		})
	}
}

// v1HybridML is the ML component of the committed version-1 hybrid
// fixture: small, so the fixture is a few kilobytes.
func v1HybridML() ml.Regressor { return &ml.Pipeline{Model: ml.NewExtraTrees(6, 1)} }

// TestLamb1V1DecodeHybrid is the same regression for a hybrid payload
// (residual coupling, so the header's mode word is non-zero).
func TestLamb1V1DecodeHybrid(t *testing.T) {
	m, probe := fitHybrid(t, hybrid.Config{Seed: 1, Mode: hybrid.ResidualMode, NewML: v1HybridML})
	want := predict(t, &Payload{Hybrid: m}, probe)

	decoded, err := lamb1Codec{}.Decode(readLamb1Fixture(t, "hybrid", 1), DecodeOptions{Analytical: testAM})
	if err != nil {
		t.Fatalf("v1 hybrid decode: %v", err)
	}
	if got := decoded.Hybrid.Config().Mode; got != hybrid.ResidualMode {
		t.Fatalf("v1 hybrid mode %v, want residual", got)
	}
	requireBitIdentical(t, "lamb1-v1-hybrid", want, predict(t, decoded, probe))
}

// TestLamb1VersionReporting pins the header versions and the Inspect
// version and node-layout fields across the format generations: new
// artifacts are v3 implicit-left, legacy only before that; a jsonv1
// golden stays explicit-children and versionless.
func TestLamb1VersionReporting(t *testing.T) {
	reg, _ := fitFixture(t, fixtures[1].build) // forest
	p := &Payload{Regressor: reg}

	data := encode(t, lamb1Codec{}, p)
	if v := lamb1FormatVersion(data); v != lamb1VersionLatest {
		t.Fatalf("new artifact written at version %d, want %d", v, lamb1VersionLatest)
	}
	info, _, err := Inspect(data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.NodeLayout != "implicit-left" || info.Version != lamb1VersionLatest || info.Legacy() {
		t.Fatalf("new artifact: layout %q, version %d, legacy %v; want implicit-left, %d, false",
			info.NodeLayout, info.Version, info.Legacy(), lamb1VersionLatest)
	}
	for _, version := range []int{1, 2} {
		legacy, _, err := Inspect(readLamb1Fixture(t, "forest", version), DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if legacy.Version != version || !legacy.Legacy() {
			t.Fatalf("v%d fixture: version %d, legacy %v", version, legacy.Version, legacy.Legacy())
		}
	}

	jdata, _ := readGolden(t, "forest")
	jinfo, _, err := Inspect(jdata, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if jinfo.NodeLayout != "explicit-children" || jinfo.Version != 0 || !jinfo.Legacy() {
		t.Fatalf("jsonv1: layout %q, version %d, legacy %v; want explicit-children, 0, true", jinfo.NodeLayout, jinfo.Version, jinfo.Legacy())
	}
}
