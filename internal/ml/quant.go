package ml

import (
	"fmt"
	"math"
)

// Quantized node tables (LayoutQuant16 / LayoutQuant8 and the
// standalone QuantizedModel). The exact table spends 28 bytes per node
// (feature i32, right i32, nSamples i32, threshold f64, value f64);
// the quantized table spends 6 (16-bit) or 5 (8-bit) plus 4 bytes per
// leaf value, a ~3.5-4x shrink that lets 100-tree ensembles sit in
// L1/L2:
//
//   - thresholds are per-feature affine-coded unsigned integers:
//     q(v) = clamp(floor((v - lo[f]) · scale[f]), 0, maxQ) with lo/hi
//     the min/max threshold of feature f across the ensemble and
//     scale = (maxQ-1) / (hi - lo) — one bucket of headroom, so the
//     top threshold codes to maxQ-1 and a row above every threshold
//     still clamps to maxQ and routes right. A row is quantized once
//     per predict and every split compares integers.
//   - child links are implicit-left preorder with a tree-local uint16
//     right index; at a leaf the same slot holds the tree-local leaf
//     ordinal into a shared float32 leaf-value array.
//
// The mode is approximate, with a hard geometric bound: a split can
// only flip for rows within one quantization step (hi-lo)/(maxQ-1)
// above its threshold — left routing is always preserved, floor being
// monotone (pinned by the error-bound property test in quant_test.go).
// Exact modes are unaffected. Caveats: rows are
// assumed finite — NaN features lose the legacy NaN-goes-right
// routing — and predictions are no longer bit-identical to the exact
// table, so quantized artifacts are published as new versions, never
// swapped in place.

// quantEnsemble is the quantized twin of CompiledEnsemble.
type quantEnsemble struct {
	bits       int // 8 or 16
	combine    ensembleCombine
	init, rate float64
	nFeatures  int

	roots    []int32 // per-tree first node (into the node arrays)
	leafBase []int32 // per-tree first leaf ordinal (into leafVal)

	feature []int16  // per node; < 0 marks a leaf
	next    []uint16 // tree-local right-child index; leaf ordinal at leaves
	qthr16  []uint16 // bits == 16
	qthr8   []uint8  // bits == 8
	leafVal []float32

	lo    []float64 // per feature: minimum threshold
	scale []float64 // per feature: maxQ / (hi - lo)
}

// quantMaxNodesPerTree bounds one tree's node count and leaf count so
// tree-local links fit uint16.
const quantMaxNodesPerTree = 1 << 16

// maxQ returns the top quantization code.
func (q *quantEnsemble) maxQ() float64 {
	if q.bits == 8 {
		return 255
	}
	return 65535
}

// NumTrees returns the number of member trees.
func (q *quantEnsemble) NumTrees() int { return len(q.roots) }

// NumNodes returns the total node count.
func (q *quantEnsemble) NumNodes() int { return len(q.feature) }

// TableBytes returns the quantized table footprint in bytes — the
// number the ~4x shrink claim is measured on (node arrays, leaf
// values, per-tree offsets and the per-feature affine code).
func (q *quantEnsemble) TableBytes() int {
	return len(q.feature)*2 + len(q.next)*2 + len(q.qthr16)*2 + len(q.qthr8) +
		len(q.leafVal)*4 + (len(q.roots)+len(q.leafBase))*4 + (len(q.lo)+len(q.scale))*8
}

// buildQuantEnsemble quantizes a compiled ensemble's node table. The
// feature arity is inferred from the table (max feature index + 1) —
// unreferenced trailing features simply never participate in a split.
// Errors when a tree exceeds the uint16 link space or a feature index
// exceeds int16.
func buildQuantEnsemble(e *CompiledEnsemble, bits int) (*quantEnsemble, error) {
	if bits != 8 && bits != 16 {
		return nil, fmt.Errorf("ml: quantization bits must be 8 or 16, got %d", bits)
	}
	hot := e.hot
	n := len(hot)
	if n == 0 {
		return nil, fmt.Errorf("ml: cannot quantize an empty ensemble")
	}
	nFeatures := 0
	for _, nd := range hot {
		if int(nd.feature) >= nFeatures {
			nFeatures = int(nd.feature) + 1
		}
	}
	if nFeatures > math.MaxInt16 {
		return nil, fmt.Errorf("ml: cannot quantize: %d features exceed the int16 feature space", nFeatures)
	}
	q := &quantEnsemble{
		bits: bits, combine: e.combine, init: e.init, rate: e.rate,
		nFeatures: nFeatures,
		roots:     make([]int32, 0, len(e.roots)),
		leafBase:  make([]int32, 0, len(e.roots)),
		feature:   make([]int16, n),
		next:      make([]uint16, n),
		lo:        make([]float64, nFeatures),
		scale:     make([]float64, nFeatures),
	}
	// Per-feature threshold range across the whole ensemble.
	hi := make([]float64, nFeatures)
	seen := make([]bool, nFeatures)
	for _, nd := range hot {
		f, t := nd.feature, nd.threshold
		if f < 0 {
			continue
		}
		if !seen[f] {
			q.lo[f], hi[f], seen[f] = t, t, true
		} else {
			if t < q.lo[f] {
				q.lo[f] = t
			}
			if t > hi[f] {
				hi[f] = t
			}
		}
	}
	maxQ := q.maxQ()
	for f := range q.scale {
		switch {
		case !seen[f]:
			q.scale[f] = 0 // feature never split on; codes are all 0
		case hi[f] > q.lo[f]:
			// maxQ-1, not maxQ: the top threshold must code strictly
			// below the row clamp or nothing could route right of it.
			q.scale[f] = (maxQ - 1) / (hi[f] - q.lo[f])
		default:
			// One distinct threshold t: code 0 for v <= t, maxQ above.
			// (v-t)·MaxFloat64 overflows to +Inf for any v
			// meaningfully above t and clamps to maxQ; v <= t gives a
			// non-positive product that clamps to 0.
			q.scale[f] = math.MaxFloat64
		}
	}
	qthr := make([]float64, n) // staging before narrowing
	for i, nd := range hot {
		if f := nd.feature; f >= 0 {
			qthr[i] = quantizeCode(nd.threshold, q.lo[f], q.scale[f], maxQ)
		}
	}
	if q.bits == 8 {
		q.qthr8 = make([]uint8, n)
		for i, v := range qthr {
			q.qthr8[i] = uint8(v)
		}
	} else {
		q.qthr16 = make([]uint16, n)
		for i, v := range qthr {
			q.qthr16[i] = uint16(v)
		}
	}
	// Per-tree link and leaf-value re-emission.
	for t, root := range e.roots {
		end := e.treeEnd(t)
		treeLen := int(end - root)
		if treeLen > quantMaxNodesPerTree {
			return nil, fmt.Errorf("ml: cannot quantize: tree %d has %d nodes, exceeding the uint16 link space (%d)", t, treeLen, quantMaxNodesPerTree)
		}
		q.roots = append(q.roots, root)
		q.leafBase = append(q.leafBase, int32(len(q.leafVal)))
		leaves := 0
		for g := root; g < end; g++ {
			nd := hot[g]
			if nd.feature < 0 {
				q.feature[g] = -1
				q.next[g] = uint16(leaves)
				q.leafVal = append(q.leafVal, float32(nd.threshold))
				leaves++
			} else {
				q.feature[g] = int16(nd.feature)
				q.next[g] = uint16(nd.right - root)
			}
		}
	}
	return q, nil
}

// quantizeCode maps a value to its quantization code as a float64
// (the caller narrows). Non-finite products (NaN from NaN inputs,
// -Inf) clamp to 0, +Inf to maxQ.
func quantizeCode(v, lo, scale, maxQ float64) float64 {
	c := math.Floor((v - lo) * scale)
	if !(c > 0) { // also catches NaN
		return 0
	}
	if c > maxQ {
		return maxQ
	}
	return c
}

// quantizeRow quantizes one feature row into qx (len nFeatures).
func (q *quantEnsemble) quantizeRow(x []float64, qx []uint16) {
	maxQ := q.maxQ()
	for f := range qx {
		qx[f] = uint16(quantizeCode(x[f], q.lo[f], q.scale[f], maxQ))
	}
}

// quantWalk is the branchless implicit-left descent over a quantized
// tree: identical control flow to CompiledTree.predictFrom but with
// integer compares and a tree-local link array. Generic over the
// threshold width so both modes share one loop body.
func quantWalk[T uint8 | uint16](feature []int16, qthr []T, next []uint16, leafVal []float32, base, lbase int32, qx []uint16) float64 {
	j := base
	for {
		f := feature[j]
		if f < 0 {
			return float64(leafVal[lbase+int32(next[j])])
		}
		nxt := base + int32(next[j])
		if qx[f] <= uint16(qthr[j]) {
			nxt = j + 1
		}
		j = nxt
	}
}

// hotLanes is the number of walks the quantized kernels step in
// lockstep (trees for one row, rows for one tree), so that many
// dependent loads stay in flight.
const hotLanes = 4

// predictQuantized folds the member trees over one quantized row,
// hotLanes trees at a time (same latency-hiding interleave as
// predictHotInterleaved; leaf values still fold in tree order).
func (q *quantEnsemble) predictQuantized(qx []uint16) float64 {
	if q.bits == 8 {
		return quantFoldInterleaved(q, q.qthr8, qx)
	}
	return quantFoldInterleaved(q, q.qthr16, qx)
}

// quantFoldInterleaved walks hotLanes member trees in lockstep over one
// quantized row. Lanes carry their own tree base and leaf base since
// links and leaf ordinals are tree-local.
func quantFoldInterleaved[T uint8 | uint16](q *quantEnsemble, qthr []T, qx []uint16) float64 {
	feature, next, leafVal, roots := q.feature, q.next, q.leafVal, q.roots
	var idx, base, lb [hotLanes]int32
	var val [hotLanes]float64
	boosted := q.combine == combineBoosted
	out := 0.0
	if boosted {
		out = q.init
	}
	for g := 0; g < len(roots); g += hotLanes {
		m := len(roots) - g
		if m > hotLanes {
			m = hotLanes
		}
		for l := 0; l < m; l++ {
			idx[l], base[l], lb[l] = roots[g+l], roots[g+l], q.leafBase[g+l]
		}
		for active := m; active > 0; {
			active = 0
			for l := 0; l < m; l++ {
				j := idx[l]
				f := feature[j]
				if f < 0 {
					val[l] = float64(leafVal[lb[l]+int32(next[j])])
					continue
				}
				active++
				nxt := base[l] + int32(next[j])
				if qx[f] <= uint16(qthr[j]) {
					nxt = j + 1
				}
				idx[l] = nxt
			}
		}
		if boosted {
			for l := 0; l < m; l++ {
				out += q.rate * val[l]
			}
		} else {
			for l := 0; l < m; l++ {
				out += val[l]
			}
		}
	}
	if !boosted {
		out /= float64(len(roots))
	}
	return out
}

// predict quantizes one row (pooled scratch) and folds the trees.
// Steady-state allocation-free.
func (q *quantEnsemble) predict(x []float64) float64 {
	qp := getScratchU16(q.nFeatures)
	qx := *qp
	q.quantizeRow(x, qx)
	out := q.predictQuantized(qx)
	putScratchU16(qp)
	return out
}

// predictBatchInto scores a row block. Rows are quantized once into a
// pooled flat buffer; from the tree-major cutoff the outer loop walks
// trees so the (already small) quantized table's hot span stays
// resident across the whole block.
func (q *quantEnsemble) predictBatchInto(X [][]float64, out []float64) {
	p := q.nFeatures
	qp := getScratchU16(len(X) * p)
	flat := *qp
	for i, x := range X {
		q.quantizeRow(x, flat[i*p:(i+1)*p])
	}
	if len(q.feature) < batchTreeMajorMinNodes {
		q.predictBatchRowMajor(flat, out)
	} else {
		q.predictBatchTreeMajor(flat, out)
	}
	putScratchU16(qp)
}

// predictBatchRowMajor folds the whole ensemble per quantized row of
// the flat block.
func (q *quantEnsemble) predictBatchRowMajor(flat []uint16, out []float64) {
	p := q.nFeatures
	for i := range out {
		out[i] = q.predictQuantized(flat[i*p : (i+1)*p])
	}
}

// predictBatchTreeMajor walks every tree over all quantized rows of
// the flat block before the next tree starts.
func (q *quantEnsemble) predictBatchTreeMajor(flat []uint16, out []float64) {
	p := q.nFeatures
	if q.combine == combineBoosted {
		for i := range out {
			out[i] = q.init
		}
		for t, r := range q.roots {
			lb := q.leafBase[t]
			if q.bits == 8 {
				quantTreeRows(q, q.qthr8, r, lb, flat, p, out, q.rate)
			} else {
				quantTreeRows(q, q.qthr16, r, lb, flat, p, out, q.rate)
			}
		}
	} else {
		for i := range out {
			out[i] = 0
		}
		for t, r := range q.roots {
			lb := q.leafBase[t]
			if q.bits == 8 {
				quantTreeRows(q, q.qthr8, r, lb, flat, p, out, 1)
			} else {
				quantTreeRows(q, q.qthr16, r, lb, flat, p, out, 1)
			}
		}
		n := float64(len(q.roots))
		for i := range out {
			out[i] /= n
		}
	}
}

// quantTreeRows accumulates one quantized tree's scaled leaf values
// into out for every row of the flat quantized block, hotLanes rows in
// lockstep (the quantized twin of predictHotTreeRows). The caller's
// outer loop visits trees in order, so each out[i] accumulates exactly
// as the per-row fold would.
func quantTreeRows[T uint8 | uint16](q *quantEnsemble, qthr []T, r, lb int32, flat []uint16, p int, out []float64, scale float64) {
	feature, next, leafVal := q.feature, q.next, q.leafVal
	var idx [hotLanes]int32
	var val [hotLanes]float64
	rows := len(out)
	for g := 0; g < rows; g += hotLanes {
		m := rows - g
		if m > hotLanes {
			m = hotLanes
		}
		for l := 0; l < m; l++ {
			idx[l] = r
		}
		for active := m; active > 0; {
			active = 0
			for l := 0; l < m; l++ {
				j := idx[l]
				f := feature[j]
				if f < 0 {
					val[l] = float64(leafVal[lb+int32(next[j])])
					continue
				}
				active++
				nxt := r + int32(next[j])
				if flat[(g+l)*p+int(f)] <= uint16(qthr[j]) {
					nxt = j + 1
				}
				idx[l] = nxt
			}
		}
		for l := 0; l < m; l++ {
			out[g+l] += scale * val[l]
		}
	}
}

// validate checks a deserialised quantized table's structural
// invariants (the quantized twin of CompiledTree.validate): per-tree
// implicit-left preorder links, leaf ordinals within the shared value
// array, features within arity.
func (q *quantEnsemble) validate() error {
	n := len(q.feature)
	if n == 0 || len(q.roots) == 0 {
		return fmt.Errorf("ml: corrupt quantized table: empty")
	}
	if len(q.next) != n || len(q.leafBase) != len(q.roots) {
		return fmt.Errorf("ml: corrupt quantized table: ragged arrays")
	}
	if q.bits == 8 && len(q.qthr8) != n || q.bits == 16 && len(q.qthr16) != n {
		return fmt.Errorf("ml: corrupt quantized table: threshold array length mismatch")
	}
	if len(q.lo) != q.nFeatures || len(q.scale) != q.nFeatures {
		return fmt.Errorf("ml: corrupt quantized table: affine code length mismatch")
	}
	for t, root := range q.roots {
		if t == 0 && root != 0 {
			return fmt.Errorf("ml: corrupt quantized table: first root at %d", root)
		}
		end := int32(n)
		if t+1 < len(q.roots) {
			end = q.roots[t+1]
		}
		if root < 0 || root >= end {
			return fmt.Errorf("ml: corrupt quantized table: tree %d spans [%d, %d)", t, root, end)
		}
		lb := q.leafBase[t]
		lend := int32(len(q.leafVal))
		if t+1 < len(q.leafBase) {
			lend = q.leafBase[t+1]
		}
		if lb < 0 || lb > lend || lend > int32(len(q.leafVal)) {
			return fmt.Errorf("ml: corrupt quantized table: tree %d leaf span [%d, %d)", t, lb, lend)
		}
		for j := root; j < end; j++ {
			f := q.feature[j]
			if f >= int16(q.nFeatures) {
				return fmt.Errorf("ml: corrupt quantized table: node %d splits on feature %d of %d", j, f, q.nFeatures)
			}
			if f < 0 {
				if lb+int32(q.next[j]) >= lend {
					return fmt.Errorf("ml: corrupt quantized table: node %d leaf ordinal %d outside its tree", j, q.next[j])
				}
				continue
			}
			r := root + int32(q.next[j])
			if r <= j+1 || r >= end {
				return fmt.Errorf("ml: corrupt quantized table: node %d right child %d outside (%d, %d)", j, r, j+1, end)
			}
		}
	}
	return nil
}

// QuantizedModel is a frozen serving-only regressor around a quantized
// node table — the form Quantize returns and the lamb1 codec persists.
// It cannot be refitted (the exact table is gone); Fit returns an
// error. Predictions approximate the source model within the
// quantization bound.
type QuantizedModel struct {
	q *quantEnsemble
}

// Fit always errors: quantized models are frozen serving artifacts.
func (m *QuantizedModel) Fit(X [][]float64, y []float64) error {
	return fmt.Errorf("ml: a QuantizedModel is frozen and cannot be refitted; refit the source model and re-quantize")
}

// Predict scores one feature vector. Panics on arity mismatch,
// matching the other estimators. Allocation-free in steady state.
func (m *QuantizedModel) Predict(x []float64) float64 {
	if len(x) != m.q.nFeatures {
		panic(fmt.Sprintf("ml: QuantizedModel.Predict got %d features, want %d", len(x), m.q.nFeatures))
	}
	return m.q.predict(x)
}

// PredictBatchInto scores every row of X into out; out must have
// len(X) elements.
func (m *QuantizedModel) PredictBatchInto(X [][]float64, out []float64) error {
	if err := checkInto(m, X, out); err != nil {
		return err
	}
	m.q.predictBatchInto(X, out)
	return nil
}

// predictBatchIntoSeq implements the compiled plane's sequential block
// contract.
func (m *QuantizedModel) predictBatchIntoSeq(X [][]float64, out []float64) {
	m.q.predictBatchInto(X, out)
}

// IsFitted always reports true: a QuantizedModel only exists fitted.
func (m *QuantizedModel) IsFitted() bool { return true }

// NumFeatures returns the feature arity of the quantized table.
func (m *QuantizedModel) NumFeatures() int { return m.q.nFeatures }

// Bits returns the threshold width (8 or 16).
func (m *QuantizedModel) Bits() int { return m.q.bits }

// NumTrees returns the number of member trees.
func (m *QuantizedModel) NumTrees() int { return m.q.NumTrees() }

// NumNodes returns the total node count.
func (m *QuantizedModel) NumNodes() int { return m.q.NumNodes() }

// TableBytes returns the quantized table footprint in bytes.
func (m *QuantizedModel) TableBytes() int { return m.q.TableBytes() }

// Quantize converts a fitted tree-based regressor into a frozen
// QuantizedModel with bits-wide (8 or 16) thresholds. Pipelines are
// rebuilt around a quantized inner model (the scaler is exact);
// supported inner estimators are DecisionTree, Forest,
// GradientBoosting and Bagging over tree bases. The source model is
// not modified. Quantization is approximate — persist the result as a
// new artifact version, never over the exact model.
func Quantize(r Regressor, bits int) (Regressor, error) {
	switch v := r.(type) {
	case *DecisionTree:
		if !v.IsFitted() {
			return nil, fmt.Errorf("ml: cannot quantize an unfitted DecisionTree")
		}
		e, err := compileEnsemble([]*DecisionTree{v}, combineMean, 0, 0)
		if err != nil {
			return nil, err
		}
		return quantizeEnsemble(e, v.nFeatures, bits)
	case *Forest:
		if v.compiled == nil {
			return nil, fmt.Errorf("ml: cannot quantize an unfitted Forest")
		}
		return quantizeEnsemble(v.compiled, v.nFeatures, bits)
	case *GradientBoosting:
		if v.compiled == nil {
			return nil, fmt.Errorf("ml: cannot quantize an unfitted GradientBoosting")
		}
		return quantizeEnsemble(v.compiled, v.NumFeatures(), bits)
	case *Bagging:
		if v.compiled == nil {
			if len(v.models) == 0 {
				return nil, fmt.Errorf("ml: cannot quantize an unfitted Bagging")
			}
			return nil, fmt.Errorf("ml: cannot quantize Bagging over non-tree bases")
		}
		return quantizeEnsemble(v.compiled, v.NumFeatures(), bits)
	case *Pipeline:
		if !v.fitted {
			return nil, fmt.Errorf("ml: cannot quantize an unfitted Pipeline")
		}
		inner, err := Quantize(v.Model, bits)
		if err != nil {
			return nil, err
		}
		p := &Pipeline{Model: inner, fitted: true}
		p.scaler = v.scaler
		return p, nil
	case *QuantizedModel:
		if v.q.bits == bits {
			return v, nil
		}
		return nil, fmt.Errorf("ml: cannot re-quantize a %d-bit QuantizedModel to %d bits (the exact table was dropped)", v.q.bits, bits)
	default:
		return nil, fmt.Errorf("ml: Quantize does not support %T", r)
	}
}

// quantizeEnsemble wraps buildQuantEnsemble, widening the inferred
// arity to the estimator's recorded one so arity checks stay strict.
func quantizeEnsemble(e *CompiledEnsemble, nFeatures, bits int) (Regressor, error) {
	q, err := buildQuantEnsemble(e, bits)
	if err != nil {
		return nil, err
	}
	if nFeatures > q.nFeatures {
		q.lo = append(q.lo, make([]float64, nFeatures-q.nFeatures)...)
		q.scale = append(q.scale, make([]float64, nFeatures-q.nFeatures)...)
		q.nFeatures = nFeatures
	}
	return &QuantizedModel{q: q}, nil
}
