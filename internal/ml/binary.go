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
// (see internal/artifact). Version 3, the one written, stores a model's
// walk table verbatim: one contiguous block of 16-byte records — the
// split threshold or leaf value (f64), the feature (i32, -1 for a
// leaf) and the right child (i32, absolute in the block, 0 for a leaf)
// — followed by the per-tree root column. Encoding is a bulk copy of
// the table; decoding a tree ensemble is a handful of bounds checks, one
// branch-free validation pass over the records (adoptRecords) and, on a
// little-endian host reading an aligned buffer, no copy at all: the
// input's records become the walk table. A big-endian host or a
// misaligned buffer copies the block once. The only per-node state is
// the record: no per-node mean or sample count is stored.
//
// Versions 1 and 2 wrote each tree's node table as columns —
// feature/right/nSamples ([]int32) and threshold/value ([]float64;
// version 1 also a left column) — and are decoded forever, by packing
// the columns into a fresh heap table (compileEnsemble), but never
// written. Nothing decoded from them aliases the input.
//
// The layout discipline, relied on for the casts:
//
//   - Every scalar is a fixed 8-byte little-endian word (u64/i64/f64),
//     so sections never perturb alignment.
//   - Records are 16 bytes. An []int32 array is followed by zero
//     padding to a multiple of 8 bytes (version 2 padded its three
//     node columns as one group; version 1's four needed none).
//   - Consequently every section is a multiple of 8 bytes long and, as
//     long as the caller hands Decode an 8-byte-aligned buffer (the
//     artifact layer guarantees it), every array lands on its natural
//     alignment.
//
// Integrity: the artifact layer CRC-checks the whole file before the
// payload is decoded, so these decoders mainly defend structure —
// counts are bounded by the remaining input before any allocation, and
// every node table is validated before a walk can reach it. Every
// failure wraps lamerr.ErrCorruptArtifact; nothing panics.

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
// pure redundancy; version 3 stores the packed walk table itself.
// Encoding always writes the latest version; decoding accepts all
// three.
const (
	BinaryVersion1      = 1
	BinaryVersion2      = 2
	BinaryVersionLatest = 3
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

// appendMember writes what a version-3 tree keeps beside its records:
// its config and importances.
func appendMember(buf []byte, t *DecisionTree) []byte {
	buf = appendTreeConfig(buf, t.Config)
	buf = appendU64(buf, uint64(len(t.importances)))
	return appendF64s(buf, t.importances)
}

func memberLen(t *DecisionTree) int { return 56 + 8*len(t.importances) }

// appendNodes writes a version-3 node block: the record count, the
// records of hot with right children taken relative to hot[0] (whose
// fused index is base), and the root column. A walk table's records
// are already canonical, so on a little-endian host a table at base 0
// — every forest's, every standalone tree's — is one bulk copy.
func appendNodes(buf []byte, hot []hotNode, base int32, roots []int32) []byte {
	buf = appendU64(buf, uint64(len(hot)))
	if nativeLittleEndian && base == 0 {
		buf = append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&hot[0])), 16*len(hot))...)
	} else {
		for _, n := range hot {
			buf = appendF64(buf, n.threshold)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.feature))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.right-base&^(n.feature>>31)))
		}
	}
	return appendPad8(appendI32s(buf, roots), len(roots), 4)
}

func nodesLen(nodes, trees int) int { return 8 + 16*nodes + 4*trees + pad8(trees, 4) }

// AppendBinary appends the binary encoding of a fitted regressor to buf
// and returns the extended slice: a fitted DecisionTree, Forest, or
// Pipeline wrapping either, at BinaryVersionLatest. It is the only
// model writer, and it writes exactly BinaryLen(m) bytes; LoadModel's
// legacy JSON documents decode to the same predictions.
func AppendBinary(buf []byte, m Regressor) ([]byte, error) {
	switch v := m.(type) {
	case *DecisionTree:
		if !v.IsFitted() {
			return nil, fmt.Errorf("ml: cannot save unfitted DecisionTree")
		}
		buf = appendU64(buf, binKindTree)
		buf = appendU64(buf, uint64(v.nFeatures))
		buf = appendMember(buf, v)
		c := &v.nodes
		return appendNodes(buf, c.hot[c.root:], c.root, []int32{0}), nil
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
			buf = appendMember(buf, t)
		}
		return appendNodes(buf, v.compiled.hot, 0, v.compiled.roots), nil
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

// BinaryLen returns the number of bytes AppendBinary writes for m, so
// a writer can size its buffer once; 0 for a model it refuses.
func BinaryLen(m Regressor) int {
	switch v := m.(type) {
	case *DecisionTree:
		if !v.IsFitted() {
			return 0
		}
		return 16 + memberLen(v) + nodesLen(v.nodes.Len(), 1)
	case *Forest:
		if len(v.trees) == 0 {
			return 0
		}
		n := 8*12 + nodesLen(len(v.compiled.hot), len(v.trees))
		for _, t := range v.trees {
			n += memberLen(t)
		}
		return n
	case *Pipeline:
		if !v.fitted {
			return 0
		}
		return 16 + 16*len(v.scaler.mean) + BinaryLen(v.Model)
	default:
		return 0
	}
}

// --- decoding -------------------------------------------------------

// binReader walks a binary payload with bounds-checked, typed reads.
// Array reads slice-cast in place when the host is little-endian and
// the underlying bytes are naturally aligned (always, given an aligned
// buffer — see the layout discipline above); otherwise they fall back
// to a bulk element-wise conversion.
type binReader struct {
	data    []byte
	off     int
	version int
	// keep is the owner of data, held by every decoded tree and
	// ensemble whose records alias it (see DecodeBinaryVersion).
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

// features reads a model's feature arity: at least one, and few enough
// for an int32 split feature to name.
func (r *binReader) features() (int, error) {
	n, err := r.u64()
	if err != nil {
		return 0, err
	}
	if n < 1 || n > math.MaxInt32 {
		return 0, corruptf("tree over %d features", n)
	}
	return int(n), nil
}

// f64Column reads a legacy tree's n-node float64 column, aliasing the
// input when it can.
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

// i32Column reads a legacy tree's n-node int32 column, aliasing the
// input when it can.
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
	var vals [6]int64
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

// member reads what a version-3 tree over nFeat features keeps beside
// its records (appendMember).
func (r *binReader) member(nFeat int) (DecisionTree, error) {
	cfg, err := r.treeConfig()
	if err != nil {
		return DecisionTree{}, err
	}
	nImp, err := r.count(8)
	if err != nil {
		return DecisionTree{}, err
	}
	imp, err := r.f64s(nImp)
	if err != nil {
		return DecisionTree{}, err
	}
	return DecisionTree{Config: cfg, nFeatures: nFeat, importances: imp}, nil
}

// nodes reads a version-3 node block (appendNodes) and adopts it as the
// walk table of trees, whose arity is nFeat.
func (r *binReader) nodes(trees []*DecisionTree, nFeat int) (*CompiledEnsemble, error) {
	n, err := r.count(16)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > math.MaxInt32 {
		return nil, corruptf("node block of %d records", n)
	}
	b, err := r.bytes(16 * n)
	if err != nil {
		return nil, err
	}
	hot, keep := r.records(b)
	rb, err := r.bytes(4 * len(trees))
	if err != nil {
		return nil, err
	}
	if err := r.skipPad(len(trees), 4); err != nil {
		return nil, err
	}
	roots := make([]int32, len(trees))
	for t := range roots {
		roots[t] = int32(binary.LittleEndian.Uint32(rb[4*t:]))
	}
	e, err := adoptRecords(trees, hot, roots, nFeat, keep)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return e, nil
}

// records returns the record block b as a walk table and the owner a
// model must hold to keep reading it: b itself and the reader's owner
// when the host is little-endian and b is 8-byte aligned, else a copy
// and no owner. Nothing writes the table afterwards: a refit grows a
// new one.
func (r *binReader) records(b []byte) ([]hotNode, any) {
	n := len(b) / 16
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*hotNode)(unsafe.Pointer(&b[0])), n), r.keep
	}
	hot := make([]hotNode, n)
	for i := range hot {
		rec := b[16*i : 16*i+16]
		hot[i] = hotNode{
			threshold: math.Float64frombits(binary.LittleEndian.Uint64(rec)),
			feature:   int32(binary.LittleEndian.Uint32(rec[8:])),
			right:     int32(binary.LittleEndian.Uint32(rec[12:])),
		}
	}
	return hot, nil
}

// treeBody reads one legacy (version 1 or 2) tree body: the tree, still
// unpacked, and its node table for compileEnsemble. The per-node sample
// counts are skipped: they are not part of the model.
func (r *binReader) treeBody() (*DecisionTree, nodeTable, error) {
	var c nodeTable
	nNodes, err := r.count(4)
	if err != nil {
		return nil, c, err
	}
	nFeat, err := r.features()
	if err != nil {
		return nil, c, err
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
	v1 := r.version == BinaryVersion1
	var left []int32
	if c.feature, err = r.i32Column(nNodes); err != nil {
		return nil, c, err
	}
	if v1 {
		// Legacy layout: explicit left column, four int32 arrays (a
		// multiple of 8 bytes for any node count, so no padding).
		if left, err = r.i32Column(nNodes); err != nil {
			return nil, c, err
		}
	}
	if c.right, err = r.i32Column(nNodes); err != nil {
		return nil, c, err
	}
	if _, err = r.bytes(4 * nNodes); err != nil { // nSamples
		return nil, c, err
	}
	if !v1 {
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
	if v1 {
		// Fold the explicit children back into canonical implicit-left
		// form. Every table this codebase ever wrote is already
		// canonical, so this validates and adopts the zero-copy arrays
		// without moving a node; foreign-but-valid orders are permuted
		// (prediction-bit-identical).
		if c, err = canonicalTree(c.feature, c.threshold, c.value, left, c.right, nFeat); err != nil {
			return nil, c, corruptf("%v", err)
		}
	} else if err := c.validate(nFeat); err != nil {
		return nil, c, corruptf("%v", err)
	}
	return &DecisionTree{Config: cfg, nFeatures: nFeat, importances: imp}, c, nil
}

// DecodeBinaryVersion restores a regressor payload encoded by
// AppendBinary (BinaryVersionLatest) or by an older writer, consuming
// the whole input. Trailing bytes are treated as corruption — the
// artifact layer frames payloads with an exact length. The artifact
// layer reads the version from the lamb1 header and passes it down, so
// files written by every earlier writer keep decoding forever.
//
// A version-3 model's walk table aliases data, which the decoder and
// the model never write. owner is what keeps data valid: every tree and
// ensemble reading it holds it, so data lives exactly as long as some
// model reads it. Pass nil when data is Go heap memory, which the
// aliases keep alive on their own; pass the mapping's owner when data
// is a file mapping released once its owner is unreachable. Either
// way, data must not change while a decoded model is in use.
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
	if version < BinaryVersion1 || version > BinaryVersionLatest {
		return nil, corruptf("unsupported binary payload version %d", version)
	}
	return &binReader{data: data, version: version, keep: owner}, nil
}

func decodeModelBinary(r *binReader) (Regressor, error) {
	kind, err := r.u64()
	if err != nil {
		return nil, err
	}
	switch kind {
	case binKindTree:
		if r.version < BinaryVersionLatest {
			t, c, err := r.treeBody()
			if err != nil {
				return nil, err
			}
			if _, err := compileEnsemble([]*DecisionTree{t}, []nodeTable{c}); err != nil {
				return nil, corruptf("%v", err)
			}
			return t, nil
		}
		nFeat, err := r.features()
		if err != nil {
			return nil, err
		}
		t, err := r.member(nFeat)
		if err != nil {
			return nil, err
		}
		if _, err := r.nodes([]*DecisionTree{&t}, nFeat); err != nil {
			return nil, err
		}
		return &t, nil
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
		nFeat, err := r.features()
		if err != nil {
			return nil, err
		}
		cfg, err := r.treeConfig()
		if err != nil {
			return nil, err
		}
		// A member is at least its config and importance count: seven
		// words in version 3, and in a legacy tree body two more.
		minMember := 56
		if r.version < BinaryVersionLatest {
			minMember = 72
		}
		n, err := r.count(minMember)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, corruptf("forest with no trees")
		}
		// n is bounded by the payload, so the exact-size lists cost at
		// most a small multiple of the input.
		f := &Forest{NTrees: int(nTreesCfg), Tree: cfg, Bootstrap: bootstrap != 0,
			Seed: seed, nFeatures: nFeat, trees: make([]*DecisionTree, n)}
		if r.version < BinaryVersionLatest {
			tables := make([]nodeTable, n)
			for i := range f.trees {
				if f.trees[i], tables[i], err = r.treeBody(); err != nil {
					return nil, fmt.Errorf("forest tree %d: %w", i, err)
				}
				if got := f.trees[i].nFeatures; got != nFeat {
					return nil, corruptf("forest over %d features holds tree %d over %d", nFeat, i, got)
				}
			}
			if f.compiled, err = compileEnsemble(f.trees, tables); err != nil {
				return nil, corruptf("%v", err)
			}
			return f, nil
		}
		slab := make([]DecisionTree, n)
		for i := range slab {
			if slab[i], err = r.member(nFeat); err != nil {
				return nil, fmt.Errorf("forest tree %d: %w", i, err)
			}
			f.trees[i] = &slab[i]
		}
		if f.compiled, err = r.nodes(f.trees, nFeat); err != nil {
			return nil, fmt.Errorf("forest over %d features: %w", nFeat, err)
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
