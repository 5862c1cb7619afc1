package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refQuantPredict is the executable specification of the quantized
// walk: quantize the row and every threshold with quantizeCode, walk
// the exact canonical table recursively with integer compares, read
// leaves through float32. The table-driven quantWalk must reproduce it
// bit for bit — this is the exactness half of the quantization pin;
// the error-bound half is TestQuantizeErrorBound.
func refQuantPredict(e *CompiledEnsemble, q *quantEnsemble, x []float64) float64 {
	maxQ := q.maxQ()
	qx := make([]uint16, q.nFeatures)
	for f := range qx {
		qx[f] = uint16(quantizeCode(x[f], q.lo[f], q.scale[f], maxQ))
	}
	var walk func(i int32) float64
	walk = func(i int32) float64 {
		n := e.hot[i]
		f := n.feature
		if f < 0 {
			return float64(float32(n.threshold))
		}
		qt := uint16(quantizeCode(n.threshold, q.lo[f], q.scale[f], maxQ))
		if qx[f] <= qt {
			return walk(i + 1)
		}
		return walk(n.right)
	}
	if q.combine == combineBoosted {
		out := q.init
		for _, r := range e.roots {
			out += q.rate * walk(r)
		}
		return out
	}
	s := 0.0
	for _, r := range e.roots {
		s += walk(r)
	}
	return s / float64(len(e.roots))
}

// quantStep returns feature f's quantization step (the width of one
// code bucket), or 0 when the feature cannot misroute (never split on,
// or a single threshold coded with infinite scale).
func quantStep(q *quantEnsemble, f int) float64 {
	s := q.scale[f]
	if s <= 0 || s == math.MaxFloat64 {
		return 0
	}
	return 1 / s
}

// safeRow reports whether x routes identically through the exact and
// quantized tables: quantization can only flip a split whose threshold
// t satisfies x[f] in (t, t+step] (left routing is always preserved —
// floor is monotone), so a row whose exact root-to-leaf path in every
// tree stays clear of that band is exact up to float32 leaf rounding.
// Only visited nodes matter — a band elsewhere in the tree is never
// compared against.
func safeRow(e *CompiledEnsemble, q *quantEnsemble, x []float64) bool {
	for _, root := range e.roots {
		i := root
		for {
			n := e.hot[i]
			f := n.feature
			if f < 0 {
				break
			}
			t := n.threshold
			d := x[f] - t
			if d > 0 && d <= quantStep(q, int(f)) {
				return false
			}
			if x[f] <= t {
				i++
			} else {
				i = n.right
			}
		}
	}
	return true
}

// TestQuantizedMatchesReference pins the quantized table against the
// recursive integer-compare reference, bit for bit, across both widths
// and both combine modes, single and batch, through both the row-major
// and the tree-major walk.
func TestQuantizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a17))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(160)
		p := 1 + rng.Intn(5)
		X, y := randomRegression(rng, n, p)
		Xq, _ := randomRegression(rng, 40, p)
		cfg := randomTreeConfig(rng)

		f := &Forest{NTrees: 2 + rng.Intn(6), Tree: cfg, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		g := &GradientBoosting{NStages: 2 + rng.Intn(6), MaxDepth: 1 + rng.Intn(4), Seed: rng.Int63(), Workers: 1}
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}

		for _, bits := range []int{16, 8} {
			for _, src := range []struct {
				name string
				r    Regressor
				e    *CompiledEnsemble
			}{{"forest", f, f.compiled}, {"gbr", g, g.compiled}} {
				qr, err := Quantize(src.r, bits)
				if err != nil {
					t.Fatalf("%s/%d: %v", src.name, bits, err)
				}
				qm := qr.(*QuantizedModel)
				if qm.Bits() != bits {
					t.Fatalf("%s: Bits() = %d, want %d", src.name, qm.Bits(), bits)
				}
				out := make([]float64, len(Xq))
				walks := append([]batchWalk{{"dispatch", func(X [][]float64, out []float64) {
					if err := qm.PredictBatchInto(X, out); err != nil {
						t.Fatal(err)
					}
				}}}, quantBatchWalks(qm.q)...)
				for _, bw := range walks {
					bw.walk(Xq, out)
					for i, x := range Xq {
						want := refQuantPredict(src.e, qm.q, x)
						if !sameBits(out[i], want) {
							t.Fatalf("%s/%d %s row %d: batch %x != reference %x", src.name, bits, bw.name, i, out[i], want)
						}
						if got := qm.Predict(x); !sameBits(got, want) {
							t.Fatalf("%s/%d row %d: single %x != reference %x", src.name, bits, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestQuantizeErrorBound is the error-bound property test the ISSUE
// pins the approximate modes on: on rows that sit clear of every
// split's one-quantization-step band (see safeRow), the quantized
// prediction must match the exact model within a configured relative
// bound — the residual being pure float32 leaf rounding. Rows inside a
// band legitimately take the other branch, so no pointwise bound can
// exist for them; the geometric guarantee (threshold moves by at most
// one step) is exactly what safeRow encodes.
func TestQuantizeErrorBound(t *testing.T) {
	const relBound = 1e-5
	rng := rand.New(rand.NewSource(0xe88))
	for trial := 0; trial < 4; trial++ {
		n := 60 + rng.Intn(140)
		p := 2 + rng.Intn(4)
		X, y := randomRegression(rng, n, p)
		// Continuous (non-grid) query rows: some land inside bands and
		// are skipped; most must be safe and tightly bounded.
		Xq := make([][]float64, 200)
		for i := range Xq {
			Xq[i] = make([]float64, p)
			for j := range Xq[i] {
				Xq[i][j] = rng.NormFloat64() * 2
			}
		}

		f := &Forest{NTrees: 4 + rng.Intn(6), Tree: TreeConfig{Splitter: RandomSplitter, Seed: rng.Int63()}, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, bits := range []int{16, 8} {
			qr, err := Quantize(f, bits)
			if err != nil {
				t.Fatal(err)
			}
			qm := qr.(*QuantizedModel)
			safe, maxRel := 0, 0.0
			for _, x := range Xq {
				if !safeRow(f.compiled, qm.q, x) {
					continue
				}
				safe++
				want := f.Predict(x)
				got := qm.Predict(x)
				rel := math.Abs(got-want) / math.Max(1, math.Abs(want))
				if rel > maxRel {
					maxRel = rel
				}
			}
			if safe < len(Xq)/4 {
				t.Fatalf("%d-bit: only %d/%d rows clear the quantization bands — fixture too coarse to test the bound", bits, safe, len(Xq))
			}
			if maxRel > relBound {
				t.Errorf("%d-bit: max relative error %.3g on safe rows exceeds bound %.3g", bits, maxRel, relBound)
			}
		}
	}
}

// exactTableBytes is the member trees' exact footprint for the same
// ensemble (28 bytes a node, see quant.go), for shrink-factor reporting.
func exactTableBytes(e *CompiledEnsemble) int {
	return e.NumNodes()*28 + len(e.roots)*4
}

// TestQuantizedTableShrink pins the footprint claim. A binary tree is
// always ~half leaves (L = I + 1), so per node the 16-bit table spends
// ~8 bytes (feature 2 + next 2 + qthr 2 + ~half a float32 leaf 2) and
// the 8-bit one ~7, against 28 exact — structural ratios of ~3.5x and
// ~4x. The floors leave headroom for the per-tree and per-feature
// side tables.
func TestQuantizedTableShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5123))
	X, y := randomRegression(rng, 800, 5)
	f := &Forest{NTrees: 30, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 4, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	exact := exactTableBytes(f.compiled)
	for _, tc := range []struct {
		bits  int
		floor float64
	}{{16, 3.3}, {8, 3.8}} {
		qr, err := Quantize(f, tc.bits)
		if err != nil {
			t.Fatal(err)
		}
		qb := qr.(*QuantizedModel).TableBytes()
		if ratio := float64(exact) / float64(qb); ratio < tc.floor {
			t.Errorf("%d-bit table shrink %.2fx (exact %d B, quant %d B), want >= %.1fx", tc.bits, ratio, exact, qb, tc.floor)
		}
	}
}

// TestQuantizedModelRoundTrip pins the lamb1 v2 persistence of the
// quantized kind: binary round trip is bit-identical, version-1
// decoders reject the kind, and jsonv1 refuses to encode it.
func TestQuantizedModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6d4))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 40, 4)
	g := &GradientBoosting{NStages: 10, Seed: 6, Workers: 1}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{16, 8} {
		qr, err := Quantize(g, bits)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := AppendBinary(nil, qr)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		qb, ok := back.(*QuantizedModel)
		if !ok {
			t.Fatalf("round trip decoded %T", back)
		}
		if qb.Bits() != bits || qb.NumFeatures() != qr.(*QuantizedModel).NumFeatures() {
			t.Fatalf("round trip lost shape: bits %d features %d", qb.Bits(), qb.NumFeatures())
		}
		for _, x := range Xq {
			if got, want := qb.Predict(x), qr.(*QuantizedModel).Predict(x); !sameBits(got, want) {
				t.Fatalf("round trip: %x != %x", got, want)
			}
		}
		if _, err := DecodeBinaryVersion(buf, BinaryVersion1); err == nil {
			t.Error("version-1 decoder accepted a quantized payload")
		}
		if _, err := encodeModel(qr); err == nil || !strings.Contains(err.Error(), "binary codec") {
			t.Errorf("jsonv1 encode of a quantized model: %v, want a use-the-binary-codec error", err)
		}
		stats := StatsOf(qr)
		wantKind := "quant16"
		if bits == 8 {
			wantKind = "quant8"
		}
		if stats.Kind != wantKind || stats.Quant != wantKind || stats.Trees != g.NumStages() {
			t.Errorf("StatsOf = %+v, want kind/quant %s with %d trees", stats, wantKind, g.NumStages())
		}
	}
}

// TestQuantizePipeline asserts quantization recurses through Pipeline
// (scaler exact, inner model quantized) and survives a binary round
// trip.
func TestQuantizePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(0x99))
	X, y := randomRegression(rng, 150, 3)
	Xq, _ := randomRegression(rng, 30, 3)
	pl := &Pipeline{Model: NewExtraTrees(8, 2)}
	if err := pl.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	qr, err := Quantize(pl, 16)
	if err != nil {
		t.Fatal(err)
	}
	qp, ok := qr.(*Pipeline)
	if !ok {
		t.Fatalf("quantized pipeline is %T", qr)
	}
	if _, ok := qp.Model.(*QuantizedModel); !ok {
		t.Fatalf("quantized pipeline inner is %T", qp.Model)
	}
	buf, err := AppendBinary(nil, qr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range Xq {
		if got, want := back.Predict(x), qr.Predict(x); !sameBits(got, want) {
			t.Fatalf("pipeline round trip: %x != %x", got, want)
		}
		// The 16-bit tables are dense; scaled coarse-grid rows stay far
		// from the bands, so the quantized pipeline tracks the exact one.
		if got, want := qr.Predict(x), pl.Predict(x); math.Abs(got-want) > 0.05*(1+math.Abs(want)) {
			t.Fatalf("quantized pipeline drifted: %v vs %v", got, want)
		}
	}
}

// TestQuantizeErrors pins the misuse contract.
func TestQuantizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := randomRegression(rng, 60, 3)

	if _, err := Quantize(&Forest{}, 16); err == nil {
		t.Error("quantize of an unfitted forest accepted")
	}
	lr := &LinearRegression{}
	if err := lr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(lr, 16); err == nil {
		t.Error("quantize of a linear model accepted")
	}
	f := &Forest{NTrees: 3, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(f, 12); err == nil {
		t.Error("12-bit quantization accepted")
	}
	q16, err := Quantize(f, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(q16, 8); err == nil {
		t.Error("re-quantization to a different width accepted")
	}
	if again, err := Quantize(q16, 16); err != nil || again != q16 {
		t.Errorf("same-width re-quantization should be the identity, got %T %v", again, err)
	}
	if err := q16.Fit(X, y); err == nil {
		t.Error("refit of a frozen quantized model accepted")
	}
}

// TestQuantizedNaNRow documents the quantized caveat: NaN features
// clamp to code 0 (routing left) instead of the exact plane's
// NaN-goes-right, and the walk must still terminate with a finite
// leaf combination.
func TestQuantizedNaNRow(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4a4))
	X, y := randomRegression(rng, 100, 3)
	f := &Forest{NTrees: 4, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	qr, err := Quantize(f, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := qr.Predict([]float64{math.NaN(), 1, math.Inf(1)})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("NaN/Inf row produced %v, want a finite leaf combination", got)
	}
}
