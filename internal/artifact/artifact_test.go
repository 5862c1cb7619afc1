package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// synth builds a deterministic synthetic regression set: a smooth
// nonlinear response over d features, the shape every estimator in the
// suite can fit something sensible to.
func synth(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		X[i] = row
		y[i] = 1 + row[0]*row[0] + 0.5*math.Sin(3*row[1%d]) + 0.25*row[d-1] + 0.01*rng.NormFloat64()
	}
	return X, y
}

// testAM is the fixed deterministic analytical model used for hybrid
// fixtures; goldens depend on it never changing.
var testAM = hybrid.AnalyticalFunc(func(x []float64) (float64, error) {
	return 1 + 0.5*x[0]*x[0] + 0.25*x[len(x)-1], nil
})

// fixtures are the deterministic estimator configurations the goldens
// were written from: one per artifact-visible kind.
var fixtures = []struct {
	name  string
	build func() ml.Regressor
}{
	{"tree", func() ml.Regressor { return ml.NewDecisionTree(ml.TreeConfig{MaxDepth: 6, Seed: 1}) }},
	{"forest", func() ml.Regressor { return ml.NewExtraTrees(12, 1) }},
	{"pipeline", func() ml.Regressor { return &ml.Pipeline{Model: ml.NewExtraTrees(8, 1)} }},
}

func fitFixture(t testing.TB, build func() ml.Regressor) (ml.Regressor, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	X, y := synth(rng, 80, 3)
	reg := build()
	if err := reg.Fit(X, y); err != nil {
		t.Fatalf("fit: %v", err)
	}
	probe, _ := synth(rand.New(rand.NewSource(8)), 24, 3)
	return reg, probe
}

func fitHybrid(t testing.TB, cfg hybrid.Config) (*hybrid.Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	X, y := synth(rng, 80, 3)
	ds := dataset.New("a", "b", "c")
	for i := range X {
		ds.MustAdd(X[i], y[i])
	}
	m, err := hybrid.TrainCtx(context.Background(), ds, testAM, cfg)
	if err != nil {
		t.Fatalf("hybrid train: %v", err)
	}
	probe, _ := synth(rand.New(rand.NewSource(8)), 24, 3)
	return m, probe
}

func predict(t testing.TB, p *Payload, X [][]float64) []float64 {
	t.Helper()
	out := make([]float64, len(X))
	for i, x := range X {
		var err error
		if p.Hybrid != nil {
			out[i], err = p.Hybrid.Predict(x)
		} else {
			out[i], err = ml.PredictCtx(t.Context(), p.Regressor, x)
		}
		if err != nil {
			t.Fatalf("predict row %d: %v", i, err)
		}
	}
	return out
}

func encode(t testing.TB, c Codec, p *Payload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf, p); err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	return buf.Bytes()
}

func requireBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d predictions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: row %d: %v != %v (bits %016x vs %016x)",
				label, i, got[i], want[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// roundTrip encodes p in lamb1, the one format written, decodes the
// artifact back, and requires bit-identical predictions.
func roundTrip(t *testing.T, p *Payload, probe [][]float64) {
	t.Helper()
	want := predict(t, p, probe)
	opts := DecodeOptions{}
	if p.Hybrid != nil {
		opts.Analytical = testAM
	}
	data := encode(t, lamb1Codec{}, p)
	if again := encode(t, lamb1Codec{}, p); !bytes.Equal(data, again) {
		t.Fatal("lamb1 encoding is not deterministic")
	}
	detected, err := Detect(data)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if detected.Name() != FormatLAMB1 {
		t.Fatalf("Detect picked %s for a lamb1 artifact", detected.Name())
	}
	decoded, err := detected.Decode(data, opts)
	if err != nil {
		t.Fatalf("lamb1 decode: %v", err)
	}
	requireBitIdentical(t, "lamb1", want, predict(t, decoded, probe))
}

// TestJSONV1EncodeRefuses: jsonv1 is read-only. Its Encode refuses
// every payload and writes nothing.
func TestJSONV1EncodeRefuses(t *testing.T) {
	reg, _ := fitFixture(t, fixtures[0].build)
	hy, _ := fitHybrid(t, hybrid.Config{Seed: 1, NewML: func() ml.Regressor { return ml.NewExtraTrees(2, 1) }})
	c, err := ByName(FormatJSONV1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Payload{{Regressor: reg}, {Hybrid: hy}} {
		var buf bytes.Buffer
		err := c.Encode(&buf, p)
		if err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("jsonv1 Encode of a %s payload: got %v, want a read-only refusal", p.Kind(), err)
		}
		if buf.Len() != 0 {
			t.Fatalf("refused jsonv1 Encode wrote %d bytes", buf.Len())
		}
	}
	if _, err := ByName(""); err == nil {
		t.Fatal(`ByName("") resolved a codec; there is no default format name`)
	}
}

// TestRoundTripFixtures covers every estimator kind with its pinned
// configuration.
func TestRoundTripFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			reg, probe := fitFixture(t, fx.build)
			roundTrip(t, &Payload{Regressor: reg}, probe)
		})
	}
}

// TestRoundTripHybrid covers the hybrid payload with and without
// aggregation. Stacking is the one coupling, written as header word 0.
func TestRoundTripHybrid(t *testing.T) {
	for _, agg := range []bool{false, true} {
		t.Run(fmt.Sprintf("mode0-agg%v", agg), func(t *testing.T) {
			m, probe := fitHybrid(t, hybrid.Config{Seed: 1, Aggregate: agg})
			roundTrip(t, &Payload{Hybrid: m}, probe)
		})
	}
}

// TestRoundTripRandomConfigs is the property test: random estimator
// kinds with random hyperparameters, all of which must survive lamb1
// bit-identically.
func TestRoundTripRandomConfigs(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			build := randomBuild(rng)
			reg, probe := fitFixture(t, build)
			roundTrip(t, &Payload{Regressor: reg}, probe)
		})
	}
}

// randomBuild draws one random estimator configuration.
func randomBuild(rng *rand.Rand) func() ml.Regressor {
	randTree := func() ml.TreeConfig {
		return ml.TreeConfig{
			MaxDepth:        rng.Intn(8),
			MinSamplesSplit: rng.Intn(5),
			MinSamplesLeaf:  rng.Intn(3),
			MaxFeatures:     rng.Intn(4),
			Splitter:        ml.Splitter(rng.Intn(2)),
			Seed:            rng.Int63(),
		}
	}
	seed := rng.Int63()
	nTrees := 2 + rng.Intn(10)
	switch rng.Intn(3) {
	case 0:
		cfg := randTree()
		return func() ml.Regressor { return ml.NewDecisionTree(cfg) }
	case 1:
		if rng.Intn(2) == 0 {
			return func() ml.Regressor { return ml.NewRandomForest(nTrees, seed) }
		}
		return func() ml.Regressor { return ml.NewExtraTrees(nTrees, seed) }
	default:
		inner := ml.NewExtraTrees(nTrees, seed)
		return func() ml.Regressor { return &ml.Pipeline{Model: inner} }
	}
}

// TestLamb1CorruptionFailsTyped mangles a lamb1 artifact every way a
// disk or transport can — truncation at every stride, a bit flip at
// every stride — and requires a typed ErrCorruptArtifact, never a panic
// and never a silent success.
func TestLamb1CorruptionFailsTyped(t *testing.T) {
	reg, _ := fitFixture(t, fixtures[1].build) // forest: multi-tree payload
	data := encode(t, lamb1Codec{}, &Payload{Regressor: reg})

	requireCorrupt := func(label string, mangled []byte) {
		t.Helper()
		p, err := lamb1Codec{}.Decode(mangled, DecodeOptions{})
		if err == nil {
			t.Fatalf("%s: decode succeeded on mangled artifact (payload %v)", label, p.Kind())
		}
		if !errors.Is(err, lamerr.ErrCorruptArtifact) {
			t.Fatalf("%s: error %v does not wrap ErrCorruptArtifact", label, err)
		}
	}

	for l := 0; l < len(data); l += 13 {
		requireCorrupt(fmt.Sprintf("truncate[:%d]", l), data[:l:l])
	}
	for i := 0; i < len(data); i += 11 {
		mangled := bytes.Clone(data)
		mangled[i] ^= 1 << (i % 8)
		requireCorrupt(fmt.Sprintf("bitflip@%d", i), mangled)
	}
	// The classic transport mangling the magic exists to catch: CRLF
	// translation rewriting the \r\n.
	mangled := bytes.Clone(data)
	mangled[5] = '\n'
	requireCorrupt("crlf", mangled)
	// Kind mismatch against metadata.
	if _, err := (lamb1Codec{}).Decode(data, DecodeOptions{Kind: KindHybrid, Analytical: testAM}); !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("kind mismatch: got %v, want ErrCorruptArtifact", err)
	}
}

// TestLamb1CRCWinsOverRecordFault decodes a forest artifact large
// enough that its CRC and its structural decode run side by side for a
// while, at one and two processors: a record fault under a stale
// trailer, a payload
// the decoder refuses at its first word under a stale trailer, and
// single bit flips anywhere past the header all fail as
// a CRC mismatch; the same record fault reframed (the CRC fixed) fails
// as the record fault.
func TestLamb1CRCWinsOverRecordFault(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := synth(rng, 2000, 3)
	reg := ml.NewExtraTrees(40, 1)
	if err := reg.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := &Payload{Regressor: reg}
	data := encode(t, lamb1Codec{}, p)
	if len(data) < largeArtifactBytes {
		t.Fatalf("artifact is %d bytes, want at least %d", len(data), largeArtifactBytes)
	}
	// A forest's records end at its root column and padding, just
	// before the trailer; pick a split past the middle of the block.
	st := p.Stats()
	recordsEnd := len(data) - lamb1TrailerLen - 4*st.Trees - 4*(st.Trees%2)
	at := recordsEnd - 16*st.Nodes/3
	for int32(binary.LittleEndian.Uint32(data[at+8:])) < 0 {
		at += 16
	}
	faulted := bytes.Clone(data)
	binary.LittleEndian.PutUint32(faulted[at+8:], 3)
	badKind := bytes.Clone(data)
	putU64(badKind[lamb1HeaderLen:], 99)
	type mangled struct {
		name string
		data []byte
		want string
	}
	cases := []mangled{
		{"record fault, stale trailer", faulted, "CRC32C mismatch"},
		{"unknown model kind, stale trailer", badKind, "CRC32C mismatch"},
		{"record fault, reframed", reframe(faulted), "splits on feature 3 of 3"},
	}
	for range 16 {
		i := lamb1HeaderLen + rng.Intn(len(data)-lamb1HeaderLen)
		flipped := bytes.Clone(data)
		flipped[i] ^= 1 << rng.Intn(8)
		cases = append(cases, mangled{fmt.Sprintf("bit flip at %d", i), flipped, "CRC32C mismatch"})
	}

	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			_, err := lamb1Codec{}.Decode(c.data, DecodeOptions{})
			if !errors.Is(err, lamerr.ErrCorruptArtifact) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s at %d processors: got %v, want ErrCorruptArtifact naming %q", c.name, procs, err, c.want)
			}
		}
		if _, err := (lamb1Codec{}).Decode(data, DecodeOptions{}); err != nil {
			t.Errorf("the unfaulted artifact at %d processors: %v", procs, err)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestJSONV1CorruptionFailsTyped checks the legacy codec fails typed on
// damaged documents too.
func TestJSONV1CorruptionFailsTyped(t *testing.T) {
	data, _ := readGolden(t, "tree")
	for _, mangled := range [][]byte{
		data[:len(data)/2],
		[]byte("{}"),
		[]byte(`{"kind":"no-such-estimator","model":{}}`),
	} {
		if _, err := (jsonv1Codec{}).Decode(mangled, DecodeOptions{}); !errors.Is(err, lamerr.ErrCorruptArtifact) {
			t.Fatalf("jsonv1 decode of %.40q: got %v, want ErrCorruptArtifact", mangled, err)
		}
	}
	if _, err := Detect([]byte("\x00\x01\x02garbage")); !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("Detect on garbage: got %v, want ErrCorruptArtifact", err)
	}
}

// assembleLamb1 builds the lamb1 artifact of p the plain way — header,
// payload appended to a buffer with no spare capacity, CRC trailer — as
// the reference the capacity-hinted encoder must match byte for byte.
func assembleLamb1(t testing.TB, p *Payload) []byte {
	t.Helper()
	buf := make([]byte, lamb1HeaderLen)
	copy(buf, lamb1Magic[:])
	kind := lamb1KindRegressor
	var err error
	if p.Hybrid != nil {
		kind = lamb1KindHybrid
		buf, err = hybrid.AppendBinary(buf, p.Hybrid)
	} else {
		buf, err = ml.AppendBinary(buf, p.Regressor)
	}
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[8:12], lamb1VersionLatest)
	binary.LittleEndian.PutUint32(buf[12:16], kind)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(buf)-lamb1HeaderLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// goldenPredictions is the sidecar document pinning each golden's
// expected behaviour: the probe inputs and the exact predictions.
type goldenPredictions struct {
	X    [][]float64 `json:"x"`
	Pred []float64   `json:"pred"`
}

// readGolden returns the committed jsonv1 golden of one live kind
// (tree, forest, pipeline, hybrid) and its pinned predictions. The
// goldens were written by the jsonv1 writer, which is gone: they are
// the legacy contract and are never regenerated.
func readGolden(t testing.TB, name string) ([]byte, goldenPredictions) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	rawPred, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".pred.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenPredictions
	if err := json.Unmarshal(rawPred, &want); err != nil {
		t.Fatal(err)
	}
	return data, want
}

// readLamb1Fixture returns the committed lamb1 artifact of one golden
// kind at one format version, checking its header says so. The
// version-2 files are the jsonv1 goldens converted by the last build
// with a version-2 writer (commit 8ef7e57), the version-3 files the same
// goldens converted by the first version-3 writer; neither is ever
// regenerated.
func readLamb1Fixture(t testing.TB, name string, version int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("lamb1_v%d_%s.lamb", version, name)))
	if err != nil {
		t.Fatal(err)
	}
	if v := lamb1FormatVersion(data); v != version {
		t.Fatalf("lamb1_v%d_%s.lamb: header says version %d", version, name, v)
	}
	return data
}

// TestGoldenArtifacts decodes the committed artifacts of each live
// estimator kind — the jsonv1 golden and its lamb1 version-2 and
// version-3 conversions — and requires bit-identical predictions to the
// committed values from each, and from the golden converted to lamb1
// now. The conversion must be the committed version-3 bytes, whether it
// starts from jsonv1 or from version 2. This is the cross-build
// forward-compat contract: a change that breaks these goldens breaks
// every legacy registry in the field.
func TestGoldenArtifacts(t *testing.T) {
	for _, name := range []string{"tree", "forest", "pipeline", "hybrid"} {
		t.Run(name, func(t *testing.T) {
			data, want := readGolden(t, name)
			opts := DecodeOptions{}
			if name == "hybrid" {
				opts.Analytical = testAM
			}
			info, p, err := Inspect(data, opts)
			if err != nil {
				t.Fatalf("decoding golden: %v", err)
			}
			if info.Format != FormatJSONV1 {
				t.Fatalf("golden detected as %s, want jsonv1", info.Format)
			}
			requireBitIdentical(t, "golden jsonv1", want.Pred, predict(t, p, want.X))

			// Convert golden → lamb1 → decode: the upgrade path every
			// legacy registry takes.
			bin := encode(t, lamb1Codec{}, p)
			if !bytes.Equal(bin, assembleLamb1(t, p)) {
				t.Fatal("lamb1 bytes depend on the encoder's buffer capacity hint")
			}
			binInfo, fromBin, err := Inspect(bin, opts)
			if err != nil {
				t.Fatalf("decoding converted golden: %v", err)
			}
			if binInfo.Format != FormatLAMB1 {
				t.Fatalf("converted golden detected as %s, want lamb1", binInfo.Format)
			}
			requireBitIdentical(t, "golden lamb1", want.Pred, predict(t, fromBin, want.X))
			if binInfo.Version != lamb1VersionLatest || info.Version != 0 {
				t.Fatalf("versions: jsonv1 %d, converted %d; want 0 and %d", info.Version, binInfo.Version, lamb1VersionLatest)
			}

			v3 := readLamb1Fixture(t, name, 3)
			if !bytes.Equal(bin, v3) {
				t.Fatal("the golden's lamb1 conversion is not the committed version-3 artifact")
			}
			for _, version := range []int{2, 3} {
				fixture := readLamb1Fixture(t, name, version)
				fromFixture, err := lamb1Codec{}.Decode(fixture, opts)
				if err != nil {
					t.Fatalf("decoding lamb1 v%d: %v", version, err)
				}
				requireBitIdentical(t, fmt.Sprintf("lamb1 v%d", version), want.Pred, predict(t, fromFixture, want.X))
				if again := encode(t, lamb1Codec{}, fromFixture); !bytes.Equal(again, v3) {
					t.Fatalf("lamb1 v%d re-encodes to other bytes than the committed version 3", version)
				}
			}
		})
	}
}
