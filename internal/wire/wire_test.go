package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"
)

// The oracle is the decode every handler ran before this package
// existed: encoding/json over the request stream, unknown fields
// refused, into the schema struct.
func oracleDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// predictResponse is the struct the /predict answer was encoded from
// with json.Encoder; AppendPredictResponse must match it byte for byte.
type predictResponse struct {
	Model   string    `json:"model"`
	Version int       `json:"version"`
	Y       *float64  `json:"y,omitempty"`
	YBatch  []float64 `json:"y_batch,omitempty"`
}

func sameErr(t *testing.T, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("error %v, encoding/json says %v", got, want)
	}
}

// sameFloats requires equal nil-ness, length and bits.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: got %v, encoding/json says %v", what, got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x), encoding/json says %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameRows(t *testing.T, got, want [][]float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("batch: %d rows (nil %v), encoding/json says %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		sameFloats(t, "batch row", got[i], want[i])
	}
}

// readers yields the ways a body reaches a decoder: whole with its
// declared length, with none, one byte per Read (so the decoder sees
// every chunk boundary, including each '}' it may stop at), and cut at
// half its length by http.MaxBytesReader — a body whose value completes
// before the cut is still accepted, exactly as by a streaming decoder.
func readers(body []byte) []func() (io.Reader, int64) {
	return []func() (io.Reader, int64){
		func() (io.Reader, int64) { return bytes.NewReader(body), int64(len(body)) },
		func() (io.Reader, int64) { return bytes.NewReader(body), -1 },
		func() (io.Reader, int64) { return iotest.OneByteReader(bytes.NewReader(body)), -1 },
		func() (io.Reader, int64) {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(len(body)/2)), int64(len(body))
		},
	}
}

func FuzzPredictBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, open := range readers(body) {
			r, size := open()
			got, err := DecodePredict(r, size)
			var want predictRequest
			r, _ = open()
			sameErr(t, err, oracleDecode(r, &want))
			if err != nil {
				continue
			}
			if got.Model != want.Model || got.Version != want.Version {
				t.Fatalf("model %q v%d, encoding/json says %q v%d", got.Model, got.Version, want.Model, want.Version)
			}
			sameFloats(t, "x", got.X, want.X)
			sameRows(t, got.Batch, want.Batch)
			checkEncode(t, got)
			got.Release()
		}
	})
}

// checkEncode answers the decoded request with its own floats and
// requires json.Encoder's bytes: the x values (first one as a single
// answer) and every float of the body as a batch answer.
func checkEncode(t *testing.T, p *Predict) {
	t.Helper()
	ys := append([]float64(nil), p.X...)
	for _, row := range p.Batch {
		ys = append(ys, row...)
	}
	if len(p.X) > 0 {
		resp := predictResponse{Model: p.Model, Version: p.Version, Y: &p.X[0]}
		got, err := p.Response(p.Model, p.Version, p.X[:1])
		sameEncoding(t, got, err, resp)
	}
	resp := predictResponse{Model: p.Model, Version: p.Version, YBatch: ys}
	got, err := AppendPredictResponse(nil, p.Model, p.Version, ys, false)
	sameEncoding(t, got, err, resp)
}

func sameEncoding(t *testing.T, got []byte, err error, resp predictResponse) {
	t.Helper()
	var want bytes.Buffer
	if werr := json.NewEncoder(&want).Encode(resp); werr != nil || err != nil {
		t.Fatalf("encode errors: %v, encoding/json: %v", err, werr)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoded\n%s\nencoding/json writes\n%s", got, want.Bytes())
	}
}

func FuzzObserveBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, open := range readers(body) {
			r, size := open()
			got, err := DecodeObserve(r, size)
			var want observeRequest
			r, _ = open()
			sameErr(t, err, oracleDecode(r, &want))
			if err != nil {
				continue
			}
			if got.Model != want.Model {
				t.Fatalf("model %q, encoding/json says %q", got.Model, want.Model)
			}
			if (got.Y == nil) != (want.Y == nil) || (got.Y != nil && math.Float64bits(*got.Y) != math.Float64bits(*want.Y)) {
				t.Fatalf("y %v, encoding/json says %v", got.Y, want.Y)
			}
			sameFloats(t, "x", got.X, want.X)
			sameRows(t, got.Batch, want.Batch)
			sameFloats(t, "y_batch", got.YBatch, want.YBatch)
			got.Release()
		}
	})
}

// TestAppendPredictResponseMatchesEncoder sweeps float bit patterns the
// seed corpora cannot: random finite bits plus the formatting edges.
func TestAppendPredictResponseMatchesEncoder(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), -1e21, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		1e-7, 1.5e-9, 123456789, 0.1, 1 << 53}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ys := append([]float64(nil), edges...)
		for len(ys) < 64 {
			if y := math.Float64frombits(rng.Uint64()); !math.IsNaN(y) && !math.IsInf(y, 0) {
				ys = append(ys, y)
			}
		}
		rng.Shuffle(len(ys), func(a, b int) { ys[a], ys[b] = ys[b], ys[a] })
		got, err := AppendPredictResponse(nil, "grid-et.v2_x", i, ys, false)
		sameEncoding(t, got, err, predictResponse{Model: "grid-et.v2_x", Version: i, YBatch: ys})
		got, err = AppendPredictResponse(nil, "m", i, ys[:1], true)
		sameEncoding(t, got, err, predictResponse{Model: "m", Version: i, Y: &ys[0]})
	}
	// A name outside the registry's alphabet is escaped as the Encoder
	// escapes it.
	got, err := AppendPredictResponse(nil, "<a&\"é\">", 1, []float64{1}, true)
	one := 1.0
	sameEncoding(t, got, err, predictResponse{Model: "<a&\"é\">", Version: 1, Y: &one})
}

// TestAppendPredictResponseRefusesNonFinite pins the refusal: nothing is
// appended and the error names the row.
func TestAppendPredictResponseRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		dst := []byte("keep")
		out, err := AppendPredictResponse(dst, "m", 1, []float64{1, 2, bad}, false)
		if err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Fatalf("%v: error %v, want one naming row 2", bad, err)
		}
		if string(out) != "keep" {
			t.Fatalf("%v: appended %q before refusing", bad, out[4:])
		}
	}
}

// TestObserveRows: the single form is a batch of one, the batch form is
// its rows, on the scanner's path and on encoding/json's alike.
func TestObserveRows(t *testing.T) {
	for _, tc := range []struct{ body, rows string }{
		{`{"model":"m","x":[1,2],"y":3}`, "[[1 2]] [3]"},
		{`{"model":"m","x":[1,2],"y":3,"batch":[]}`, "[[1 2]] [3]"},
		{`{"model":"m","batch":[[1,2],[4,5]],"y_batch":[3,6]}`, "[[1 2] [4 5]] [3 6]"},
		{`{"model":"m","x":[1,2],"y":3,"batch":null}`, "[[1 2]] [3]"}, // encoding/json's path
		{`{"y":3,"x":[1,2],"model":"m"}`, "[[1 2]] [3]"},
	} {
		o, err := DecodeObserve(strings.NewReader(tc.body), -1)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		X, y := o.Rows()
		if got := fmt.Sprint(X, y); got != tc.rows {
			t.Errorf("%s: Rows() = %s, want %s", tc.body, got, tc.rows)
		}
		o.Release()
	}
}
