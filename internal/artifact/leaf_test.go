package artifact

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// leafTable is a hand-written five-node tree over two features in
// canonical preorder, as lamb1 version 2 stores it: node 0 splits
// feature 1 at 0.25 (right child 4), node 1 splits feature 0 at -1
// (right child 3), and nodes 2, 3 and 4 are leaves.
var leafTable = struct {
	feature, right, nSamples []int32
	threshold, value         []float64
}{
	feature:   []int32{1, 0, -1, -1, -1},
	right:     []int32{4, 3, -1, -1, -1},
	nSamples:  []int32{9, 5, 2, 3, 4},
	threshold: []float64{0.25, -1, 0, 0, 0},
	value:     []float64{0.5, -0.75, 1.5, -2.25, 7},
}

// lamb1Tree encodes leafTable as a version-2 lamb1 decision tree whose
// leaves carry the given split fields.
func lamb1Tree(leafFeature int32, leafThreshold float64, leafRight int32) []byte {
	n := len(leafTable.feature)
	var feature, right, threshold []byte
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		f, r, thr := leafTable.feature[i], leafTable.right[i], leafTable.threshold[i]
		if f < 0 {
			f, r, thr = leafFeature, leafRight, leafThreshold
		}
		feature = le.AppendUint32(feature, uint32(f))
		right = le.AppendUint32(right, uint32(r))
		threshold = le.AppendUint64(threshold, math.Float64bits(thr))
	}
	buf := append([]byte(nil), lamb1Magic[:]...)
	buf = le.AppendUint32(buf, lamb1Version2)
	buf = le.AppendUint32(buf, lamb1KindRegressor)
	buf = le.AppendUint64(buf, 0) // payload length, set by reframe
	// Kind (tree); node, feature and importance counts; the config
	// (MaxDepth, MinSamplesSplit, MinSamplesLeaf, MaxFeatures,
	// Splitter, Seed).
	for _, w := range []uint64{1, uint64(n), 2, 2, 0, 2, 1, 0, 0, 1} {
		buf = le.AppendUint64(buf, w)
	}
	buf = le.AppendUint64(buf, math.Float64bits(0.75))
	buf = le.AppendUint64(buf, math.Float64bits(0.25))
	buf = append(append(buf, feature...), right...)
	for _, s := range leafTable.nSamples {
		buf = le.AppendUint32(buf, uint32(s))
	}
	buf = append(buf, make([]byte, (8-3*n*4%8)%8)...)
	buf = append(buf, threshold...)
	for _, v := range leafTable.value {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return reframe(append(buf, make([]byte, lamb1TrailerLen)...))
}

// soaPredict walks leafTable as the column layout reads it: x <= the
// threshold goes to the next node, anything else to the right child.
func soaPredict(x []float64) float64 {
	i := 0
	for leafTable.feature[i] >= 0 {
		if x[leafTable.feature[i]] <= leafTable.threshold[i] {
			i++
		} else {
			i = int(leafTable.right[i])
		}
	}
	return leafTable.value[i]
}

// TestLeafSplitFieldsAreNotModel pins leaf normalisation: a version-2
// artifact whose leaves carry split fields no fit writes (feature -7,
// threshold 3.5, right 7 — out of range, which a legacy leaf may be)
// decodes, predicts exactly what its column reading does, and
// re-encodes with canonical leaves — byte for byte what the artifact
// that wrote them so (feature -1, threshold 0, right -1) re-encodes
// to — after which re-encoding is a fixed point. The packed walk table
// keeps no leaf split fields, so they cannot survive a round trip.
func TestLeafSplitFieldsAreNotModel(t *testing.T) {
	odd, canonical := lamb1Tree(-7, 3.5, 7), lamb1Tree(-1, 0, -1)
	p, err := lamb1Codec{}.Decode(odd, DecodeOptions{})
	if err != nil {
		t.Fatalf("odd leaves refused: %v", err)
	}
	fromCanonical, err := lamb1Codec{}.Decode(canonical, DecodeOptions{})
	if err != nil {
		t.Fatalf("canonical leaves refused: %v", err)
	}
	for _, a := range []float64{-2, -1, -0.5, 0.25, 0.3, math.NaN()} {
		for _, b := range []float64{-1, 0.25, 0.26, 3, math.NaN()} {
			x := []float64{a, b}
			if got, want := p.Regressor.Predict(x), soaPredict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("predict %v = %v, column reading %v", x, got, want)
			}
		}
	}
	once := encode(t, lamb1Codec{}, p)
	if want := encode(t, lamb1Codec{}, fromCanonical); !bytes.Equal(once, want) {
		t.Fatalf("re-encoding kept leaf split fields:\n got %x\nwant %x", once, want)
	}
	again, err := lamb1Codec{}.Decode(once, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if twice := encode(t, lamb1Codec{}, again); !bytes.Equal(twice, once) {
		t.Fatal("re-encoding is not a fixed point")
	}
}
