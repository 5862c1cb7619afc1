package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"lam/internal/lamerr"
)

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

// mutateLAMB1 replaces a lamb1 artifact's payload with edit's rewrite
// of it and reframes the result.
func mutateLAMB1(data []byte, edit func(payload []byte) []byte) []byte {
	payload := edit(bytes.Clone(data[lamb1HeaderLen : len(data)-lamb1TrailerLen]))
	out := append(bytes.Clone(data[:lamb1HeaderLen]), payload...)
	return reframe(append(out, make([]byte, lamb1TrailerLen)...))
}

// mutateJSON rewrites a jsonv1 document through edit. Numbers stay
// json.Number, so seeds and float bits survive the round trip.
func mutateJSON(t testing.TB, data []byte, edit func(doc map[string]any)) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func obj(v any) map[string]any { return v.(map[string]any) }

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// arityCases are artifacts whose parts disagree on the feature count,
// each made by mutating a committed golden (all over three features):
// the jsonv1 document itself, and its lamb1 conversion.
var arityCases = []struct {
	name   string
	golden string
	want   string
	// lamb1 rewrites the lamb1 payload; nil where that format cannot
	// express the defect.
	lamb1 func(p []byte) []byte
	json  func(doc map[string]any)
}{
	{
		name: "tree split past arity", golden: "tree", want: "feature 3 of 3",
		// kind, features, six config words, the importance count, the
		// importances, the record count, then the records: the root's
		// feature follows its threshold.
		lamb1: func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[88+8*binary.LittleEndian.Uint64(p[64:]):], 3)
			return p
		},
		json: func(doc map[string]any) { obj(obj(doc["data"])["nodes"].([]any)[0])["f"] = 3 },
	},
	{
		name: "forest narrower than its trees", golden: "forest", want: "forest over 2 features",
		// kind, NTrees, bootstrap, seed, then the arity.
		lamb1: func(p []byte) []byte { putU64(p[32:], 2); return p },
		json:  func(doc map[string]any) { obj(doc["data"])["n_features"] = 2 },
	},
	{
		name: "pipeline scaler wider than its model", golden: "pipeline", want: "pipeline scales 4 features for a model over 3",
		// kind, width, means, deviations, then the inner model.
		lamb1: func(p []byte) []byte {
			out := binary.LittleEndian.AppendUint64(append([]byte(nil), p[:8]...), 4)
			out = append(append(out, p[16:40]...), make([]byte, 8)...)
			out = append(append(out, p[40:64]...), p[40:48]...)
			return append(out, p[64:]...)
		},
		json: func(doc map[string]any) {
			d := obj(doc["data"])
			d["mean"] = append(d["mean"].([]any), 0)
			d["std"] = append(d["std"].([]any), 1)
		},
	},
	{
		name: "pipeline with fewer deviations than means", golden: "pipeline", want: "3 means and 2 deviations",
		// lamb1 writes one width for both vectors.
		json: func(doc map[string]any) {
			d := obj(doc["data"])
			d["std"] = d["std"].([]any)[:2]
		},
	},
	{
		// The golden hybrid is stacked: its ML component is over 4.
		name: "stacked hybrid arity", golden: "hybrid", want: "stack coupling over 2 features needs an ML component over 3, artifact has 4",
		// mode, aggregate, weight, then the arity.
		lamb1: func(p []byte) []byte { putU64(p[24:], 2); return p },
		json:  func(doc map[string]any) { doc["n_features"] = 2 },
	},
	{
		name: "residual hybrid arity", golden: "hybrid", want: "residual coupling over 3 features needs an ML component over 3, artifact has 4",
		lamb1: func(p []byte) []byte { putU64(p[0:], 1); return p },
		json:  func(doc map[string]any) { doc["mode"] = 1 },
	},
	{
		name: "unknown hybrid coupling", golden: "hybrid", want: "unknown coupling Mode(7)",
		lamb1: func(p []byte) []byte { putU64(p[0:], 7); return p },
		json:  func(doc map[string]any) { doc["mode"] = 7 },
	},
}

// TestDecodeRefusesInconsistentArity: an artifact whose parts disagree
// on the feature count would otherwise decode cleanly and then panic
// on its first predict (a split indexing past the row, a forest or
// pipeline handing its trees rows of the wrong width) or serve a
// silent 0 (an unknown hybrid coupling). Each such artifact must be
// refused at decode, in both codecs, with ErrCorruptArtifact; the
// unmutated artifact must still decode.
func TestDecodeRefusesInconsistentArity(t *testing.T) {
	opts := DecodeOptions{Analytical: testAM}
	for _, tc := range arityCases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(c Codec, data, mutated []byte) {
				t.Helper()
				if _, err := c.Decode(data, opts); err != nil {
					t.Fatalf("%s: the unmutated artifact does not decode: %v", c.Name(), err)
				}
				p, err := c.Decode(mutated, opts)
				if err == nil {
					t.Fatalf("%s: decoded (%s), want a refusal", c.Name(), p.Stats().Kind)
				}
				if !errors.Is(err, lamerr.ErrCorruptArtifact) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: got %v, want ErrCorruptArtifact naming %q", c.Name(), err, tc.want)
				}
			}
			golden, _ := readGolden(t, tc.golden)
			check(jsonv1Codec{}, golden, mutateJSON(t, golden, tc.json))
			if tc.lamb1 != nil {
				p, err := (jsonv1Codec{}).Decode(golden, opts)
				if err != nil {
					t.Fatal(err)
				}
				bin := encode(t, lamb1Codec{}, p)
				check(lamb1Codec{}, bin, mutateLAMB1(bin, tc.lamb1))
			}
		})
	}
}
