package ml

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"lam/internal/lamerr"
)

// Binary model encoding: the payload layer of the lamb1 artifact format
// (see internal/artifact). Where the JSON encoding spells every node
// out as a document, this encoding writes each tree's node table as
// columns — feature/right/nSamples ([]int32) and threshold/value
// ([]float64; version 1 also a left column) — little-endian, so
// decoding a tree ensemble is a handful of bounds checks, slice-casts
// of the columns straight out of the file buffer (zero-copy on a
// little-endian machine; big-endian or misaligned inputs take a bulk
// conversion) and one pack into the walk table, the only per-node
// allocation. Once packed, only a tree's value and nSamples columns
// alias the input; every other vector (importances, scaler state) is
// O(features) and copied, so the input stays pinned by the trees alone
// (see DecodeBinaryVersion's owner). A leaf's split fields are not part
// of the model: every leaf is written as feature -1, threshold 0 and
// right -1.
//
// The layout discipline, relied on for the casts:
//
//   - Every scalar is a fixed 8-byte little-endian word (u64/i64/f64),
//     so sections never perturb alignment.
//   - []int32 arrays are written in groups of four (4·4n bytes), so a
//     group is always a multiple of 8 bytes and any following []float64
//     stays 8-byte aligned.
//   - Consequently every section is a multiple of 8 bytes long and, as
//     long as the caller hands Decode an 8-byte-aligned buffer (the
//     artifact layer guarantees it), every array lands on its natural
//     alignment.
//
// Integrity: the artifact layer CRC-checks the whole file before the
// payload is decoded, so these decoders mainly defend structure —
// counts are bounded by the remaining input before any allocation, and
// node tables go through the same validate() pass as the JSON path.
// Every failure wraps lamerr.ErrCorruptArtifact; nothing panics.

// Binary model-kind tags. Values are part of the on-disk format; never
// renumber, only append.
const (
	binKindTree     uint64 = 1
	binKindForest   uint64 = 2
	binKindPipeline uint64 = 6
	// binKindRetiredQuant was the quantised node table (payload
	// version 2 only), retired in PR 26. The tag stays reserved: it is
	// refused on decode and never reused.
	binKindRetiredQuant uint64 = 9
)

// retiredBinKinds are the estimator kinds retired with their
// estimators (linear regression, k-nearest neighbours, gradient
// boosting, bagging, stacking). No binary or public constructor ever
// built one, so no published artifact holds them; the tags stay
// reserved, are refused on decode by name and are never reused.
var retiredBinKinds = map[uint64]string{
	3: "linreg",
	4: "knn",
	5: "gbr",
	7: "bagging",
	8: "stacking",
}

// Payload versions (the artifact layer's lamb1 header carries the
// version and passes it down here). Version 1 tree bodies store an
// explicit left-child array; version 2 drops it — the runtime layout
// is canonical implicit-left preorder (left == i+1), so the column is
// pure redundancy. Encoding always writes the current version;
// decoding accepts both.
const (
	BinaryVersion1      = 1
	BinaryVersionLatest = 2
)

// nativeLittleEndian reports whether the host stores multi-byte words
// little-endian — the fast path where array bytes can be reinterpreted
// in place instead of converted element by element.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func corruptf(format string, args ...any) error {
	return fmt.Errorf("ml: %w: "+format, append([]any{lamerr.ErrCorruptArtifact}, args...)...)
}

// --- encoding -------------------------------------------------------

func appendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }
func appendI64(buf []byte, v int64) []byte  { return appendU64(buf, uint64(v)) }
func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}

func appendF64s(buf []byte, v []float64) []byte {
	if len(v) == 0 {
		return buf
	}
	if nativeLittleEndian {
		return append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)...)
	}
	for _, x := range v {
		buf = appendF64(buf, x)
	}
	return buf
}

func appendI32s(buf []byte, v []int32) []byte {
	if len(v) == 0 {
		return buf
	}
	if nativeLittleEndian {
		return append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)...)
	}
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// pad8 returns the zero-byte padding that realigns a section after an
// array of elems elements of size bytes each. Sections are kept
// 8-byte-multiples so the zero-copy slice casts stay naturally aligned
// (see the layout discipline above); padding is derived from the
// element count, never from buffer offsets, so nested encodings cannot
// skew it.
func pad8(elems, size int) int { return (8 - elems*size%8) % 8 }

var zeroPad [8]byte

func appendPad8(buf []byte, elems, size int) []byte {
	return append(buf, zeroPad[:pad8(elems, size)]...)
}

func boolI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func appendTreeConfig(buf []byte, cfg TreeConfig) []byte {
	buf = appendI64(buf, int64(cfg.MaxDepth))
	buf = appendI64(buf, int64(cfg.MinSamplesSplit))
	buf = appendI64(buf, int64(cfg.MinSamplesLeaf))
	buf = appendI64(buf, int64(cfg.MaxFeatures))
	buf = appendI64(buf, int64(cfg.Splitter))
	return appendI64(buf, cfg.Seed)
}

// appendTreeBody writes one fitted tree (config, importances and its
// node table as columns) without a kind tag — forests embed member
// trees directly since their members are trees by construction.
// Bodies carry three int32 arrays per tree (feature, right, nSamples —
// the left column is implicit in the canonical layout), so an odd node
// count needs 4 bytes of padding to keep the following float64 arrays
// 8-byte aligned. The split columns are read back from the packed
// records (CompiledTree.split) and stored node by node.
func appendTreeBody(buf []byte, t *DecisionTree) []byte {
	c := &t.nodes
	n := c.Len()
	buf = appendU64(buf, uint64(n))
	buf = appendU64(buf, uint64(t.nFeatures))
	buf = appendU64(buf, uint64(len(t.importances)))
	buf = appendTreeConfig(buf, t.Config)
	buf = appendF64s(buf, t.importances)
	buf = slices.Grow(buf, 28*n+pad8(3*n, 4)) // every column below is written in full
	feature, right := len(buf), len(buf)+4*n
	buf = appendPad8(appendI32s(buf[:right+4*n], c.nSamples), 3*n, 4)
	threshold := len(buf)
	buf = buf[:threshold+8*n]
	for i := range n {
		f, thr, r := c.split(i)
		binary.LittleEndian.PutUint32(buf[feature+4*i:], uint32(f))
		binary.LittleEndian.PutUint32(buf[right+4*i:], uint32(r))
		binary.LittleEndian.PutUint64(buf[threshold+8*i:], math.Float64bits(thr))
	}
	return appendF64s(buf, c.value)
}

// AppendBinary appends the binary encoding of a fitted regressor to buf
// and returns the extended slice: a fitted DecisionTree, Forest, or
// Pipeline wrapping either. It is the only model writer; LoadModel's
// legacy JSON documents decode to the same predictions.
func AppendBinary(buf []byte, m Regressor) ([]byte, error) {
	switch v := m.(type) {
	case *DecisionTree:
		if !v.IsFitted() {
			return nil, fmt.Errorf("ml: cannot save unfitted DecisionTree")
		}
		return appendTreeBody(appendU64(buf, binKindTree), v), nil
	case *Forest:
		if len(v.trees) == 0 {
			return nil, fmt.Errorf("ml: cannot save unfitted Forest")
		}
		buf = appendU64(buf, binKindForest)
		buf = appendI64(buf, int64(v.NTrees))
		buf = appendI64(buf, boolI64(v.Bootstrap))
		buf = appendI64(buf, v.Seed)
		buf = appendU64(buf, uint64(v.nFeatures))
		buf = appendTreeConfig(buf, v.Tree)
		buf = appendU64(buf, uint64(len(v.trees)))
		for _, t := range v.trees {
			buf = appendTreeBody(buf, t)
		}
		return buf, nil
	case *Pipeline:
		if !v.fitted {
			return nil, fmt.Errorf("ml: cannot save unfitted Pipeline")
		}
		buf = appendU64(buf, binKindPipeline)
		buf = appendU64(buf, uint64(len(v.scaler.mean)))
		buf = appendF64s(buf, v.scaler.mean)
		buf = appendF64s(buf, v.scaler.std)
		return AppendBinary(buf, v.Model)
	default:
		return nil, fmt.Errorf("ml: binary encoding does not support %T", m)
	}
}

// --- decoding -------------------------------------------------------

// binReader walks a binary payload with bounds-checked, typed reads.
// Node-column reads slice-cast in place when the host is little-endian
// and the underlying bytes are naturally aligned (always, given an
// aligned buffer — see the layout discipline above); otherwise they
// fall back to a bulk element-wise conversion.
type binReader struct {
	data []byte
	off  int
	// v1 selects the legacy payload layout: tree bodies carry an
	// explicit left-child array (and no odd-count padding).
	v1 bool
	// keep is the owner of data, stored in every decoded tree whose
	// value and nSamples columns alias it (see DecodeBinaryVersion).
	keep any
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, corruptf("short payload: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *binReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *binReader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

// count reads an element count and bounds it by the bytes actually left
// in the payload, so a corrupt length can neither over-allocate nor
// overflow downstream size arithmetic.
func (r *binReader) count(elemSize int) (int, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/elemSize) {
		return 0, corruptf("element count %d exceeds remaining payload (%d bytes)", v, r.remaining())
	}
	return int(v), nil
}

// f64Column reads a tree's n-node float64 column, aliasing the input
// when it can.
func (r *binReader) f64Column(n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := r.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// i32Column reads a tree's n-node int32 column, aliasing the input
// when it can.
func (r *binReader) i32Column(n int) ([]int32, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := r.bytes(n * 4)
	if err != nil {
		return nil, err
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// f64s reads n float64s outside a node table into a fresh slice, so
// they never pin the input.
func (r *binReader) f64s(n int) ([]float64, error) {
	v, err := r.f64Column(n)
	return slices.Clone(v), err
}

func (r *binReader) skipPad(elems, size int) error {
	_, err := r.bytes(pad8(elems, size))
	return err
}

func (r *binReader) treeConfig() (TreeConfig, error) {
	var cfg TreeConfig
	vals := make([]int64, 6)
	for i := range vals {
		v, err := r.i64()
		if err != nil {
			return cfg, err
		}
		vals[i] = v
	}
	cfg.MaxDepth = int(vals[0])
	cfg.MinSamplesSplit = int(vals[1])
	cfg.MinSamplesLeaf = int(vals[2])
	cfg.MaxFeatures = int(vals[3])
	cfg.Splitter = Splitter(vals[4])
	cfg.Seed = vals[5]
	return cfg, nil
}

// treeBody reads one tree body: the tree, still unpacked, and its node
// table for compileEnsemble.
func (r *binReader) treeBody() (*DecisionTree, nodeTable, error) {
	var c nodeTable
	nNodes, err := r.count(4)
	if err != nil {
		return nil, c, err
	}
	nFeat, err := r.u64()
	if err != nil {
		return nil, c, err
	}
	if nFeat < 1 || nFeat > math.MaxInt32 {
		return nil, c, corruptf("tree over %d features", nFeat)
	}
	nImp, err := r.count(8)
	if err != nil {
		return nil, c, err
	}
	cfg, err := r.treeConfig()
	if err != nil {
		return nil, c, err
	}
	imp, err := r.f64s(nImp)
	if err != nil {
		return nil, c, err
	}
	var left []int32
	if c.feature, err = r.i32Column(nNodes); err != nil {
		return nil, c, err
	}
	if r.v1 {
		// Legacy layout: explicit left column, four int32 arrays (a
		// multiple of 8 bytes for any node count, so no padding).
		if left, err = r.i32Column(nNodes); err != nil {
			return nil, c, err
		}
	}
	if c.right, err = r.i32Column(nNodes); err != nil {
		return nil, c, err
	}
	if c.nSamples, err = r.i32Column(nNodes); err != nil {
		return nil, c, err
	}
	if !r.v1 {
		if err := r.skipPad(3*nNodes, 4); err != nil {
			return nil, c, err
		}
	}
	if c.threshold, err = r.f64Column(nNodes); err != nil {
		return nil, c, err
	}
	if c.value, err = r.f64Column(nNodes); err != nil {
		return nil, c, err
	}
	if r.v1 {
		// Fold the explicit children back into canonical implicit-left
		// form. Every table this codebase ever wrote is already
		// canonical, so this validates and adopts the zero-copy arrays
		// without moving a node; foreign-but-valid orders are permuted
		// (prediction-bit-identical).
		if c, err = canonicalTree(c.feature, c.threshold, c.value, left, c.right, c.nSamples, int(nFeat)); err != nil {
			return nil, c, corruptf("%v", err)
		}
	} else if err := c.validate(int(nFeat)); err != nil {
		return nil, c, corruptf("%v", err)
	}
	t := &DecisionTree{Config: cfg, nFeatures: int(nFeat), importances: imp}
	t.nodes.keep = r.keep
	return t, c, nil
}

// DecodeBinaryVersion restores a regressor payload encoded by
// AppendBinary (BinaryVersionLatest) or by an older writer, consuming
// the whole input. Trailing bytes are treated as corruption — the
// artifact layer frames payloads with an exact length. The artifact
// layer reads the version from the lamb1 header and passes it down, so
// files written before the implicit-left layout keep decoding forever.
//
// The decoded trees' value and nSamples columns alias data, which the
// decoder never writes. owner is what keeps data valid: every such
// tree holds it, so data lives exactly as long as some tree reads it.
// Pass nil when data is Go heap memory, which the aliases keep alive
// on their own; pass the mapping's owner when data is a file mapping
// released once its owner is unreachable.
func DecodeBinaryVersion(data []byte, version int, owner any) (Regressor, error) {
	r, err := newBinReader(data, version, owner)
	if err != nil {
		return nil, err
	}
	m, err := decodeModelBinary(r)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after model payload", r.remaining())
	}
	return m, nil
}

// DecodeBinaryPrefixVersion restores a regressor of the given payload
// version from the front of data and reports how many bytes it
// consumed — the hook nested encodings (the hybrid model's ML
// component) decode through. owner is DecodeBinaryVersion's.
func DecodeBinaryPrefixVersion(data []byte, version int, owner any) (Regressor, int, error) {
	r, err := newBinReader(data, version, owner)
	if err != nil {
		return nil, 0, err
	}
	m, err := decodeModelBinary(r)
	if err != nil {
		return nil, 0, err
	}
	return m, r.off, nil
}

func newBinReader(data []byte, version int, owner any) (*binReader, error) {
	switch version {
	case BinaryVersion1:
		return &binReader{data: data, v1: true, keep: owner}, nil
	case BinaryVersionLatest:
		return &binReader{data: data, keep: owner}, nil
	default:
		return nil, corruptf("unsupported binary payload version %d", version)
	}
}

func decodeModelBinary(r *binReader) (Regressor, error) {
	kind, err := r.u64()
	if err != nil {
		return nil, err
	}
	switch kind {
	case binKindTree:
		t, c, err := r.treeBody()
		if err != nil {
			return nil, err
		}
		if _, err := compileEnsemble([]*DecisionTree{t}, []nodeTable{c}); err != nil {
			return nil, corruptf("%v", err)
		}
		return t, nil
	case binKindForest:
		nTreesCfg, err := r.i64()
		if err != nil {
			return nil, err
		}
		bootstrap, err := r.i64()
		if err != nil {
			return nil, err
		}
		seed, err := r.i64()
		if err != nil {
			return nil, err
		}
		nFeat, err := r.u64()
		if err != nil {
			return nil, err
		}
		cfg, err := r.treeConfig()
		if err != nil {
			return nil, err
		}
		// A member tree body is at least its 9-word header.
		n, err := r.count(72)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, corruptf("forest with no trees")
		}
		// n is bounded by the payload, so the exact-size lists cost at
		// most a small multiple of the input.
		f := &Forest{NTrees: int(nTreesCfg), Tree: cfg, Bootstrap: bootstrap != 0,
			Seed: seed, nFeatures: int(nFeat), trees: make([]*DecisionTree, 0, n)}
		tables := make([]nodeTable, 0, n)
		for i := 0; i < n; i++ {
			t, c, err := r.treeBody()
			if err != nil {
				return nil, fmt.Errorf("forest tree %d: %w", i, err)
			}
			if uint64(t.nFeatures) != nFeat {
				return nil, corruptf("forest over %d features holds tree %d over %d", nFeat, i, t.nFeatures)
			}
			f.trees, tables = append(f.trees, t), append(tables, c)
		}
		if f.compiled, err = compileEnsemble(f.trees, tables); err != nil {
			return nil, corruptf("%v", err)
		}
		return f, nil
	case binKindPipeline:
		p, err := r.count(16)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			return nil, corruptf("pipeline with no scaler state")
		}
		mean, err := r.f64s(p)
		if err != nil {
			return nil, err
		}
		std, err := r.f64s(p)
		if err != nil {
			return nil, err
		}
		inner, err := decodeModelBinary(r)
		if err != nil {
			return nil, err
		}
		if n, _ := NumFeaturesOf(inner); n != p {
			return nil, corruptf("pipeline scales %d features for a model over %d", p, n)
		}
		pl := &Pipeline{Model: inner, fitted: true}
		pl.scaler.mean = mean
		pl.scaler.std = std
		return pl, nil
	case binKindRetiredQuant:
		return nil, corruptf("quantized model (binary kind %d): quantised node tables are retired and refused; delete this version or re-publish from the exact source version", kind)
	default:
		if name, ok := retiredBinKinds[kind]; ok {
			return nil, retiredKindErr(name)
		}
		return nil, corruptf("unknown binary model kind %d", kind)
	}
}

// retiredKindErr refuses an artifact of a retired estimator kind by
// name, in either codec.
func retiredKindErr(name string) error {
	return corruptf("retired estimator kind %q is refused: only trees, forests and pipelines over them load; re-fit with dt, rf or et and publish again", name)
}

// ModelStats summarises a fitted model's structure for artifact
// introspection (lam-model info): a human-readable kind, the member
// tree count and the total flat-table node count.
type ModelStats struct {
	Kind  string
	Trees int
	Nodes int
}

// StatsOf computes ModelStats by structural walk; a pipeline reports
// its inner model's counts.
func StatsOf(m Regressor) ModelStats {
	switch v := m.(type) {
	case *DecisionTree:
		return ModelStats{Kind: "decision_tree", Trees: 1, Nodes: v.nodes.Len()}
	case *Forest:
		s := ModelStats{Kind: "forest", Trees: len(v.trees)}
		if v.compiled != nil {
			s.Nodes = v.compiled.NumNodes()
		}
		return s
	case *Pipeline:
		inner := StatsOf(v.Model)
		return ModelStats{Kind: "pipeline(" + inner.Kind + ")", Trees: inner.Trees, Nodes: inner.Nodes}
	default:
		return ModelStats{Kind: fmt.Sprintf("%T", m)}
	}
}
