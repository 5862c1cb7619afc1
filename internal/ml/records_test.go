package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lam/internal/lamerr"
)

// The version-3 validator (adoptRecords) replaces the legacy decoders'
// validate + packTree pair. These tests hold it to that pair: every
// table the legacy path accepts converts to version 3 and is accepted,
// each single-field defect a walk could not survive is refused by both,
// and on random single-field edits it agrees with a plainly branching
// spec of the rule (recordsOK).

// randomTable draws a random canonical node table of budget nodes or
// fewer over nFeat features: a random preorder shape, splits on random
// features, and leaves with random values and junk in their split
// fields (any negative feature, any right child), which a legacy table
// may hold and a version-3 table may not.
func randomTable(rng *rand.Rand, budget, nFeat int) nodeTable {
	var c nodeTable
	var grow func(budget int) int32
	grow = func(budget int) int32 {
		i := int32(len(c.feature))
		c.threshold = append(c.threshold, math.Round(rng.NormFloat64()*8)/4)
		c.value = append(c.value, rng.NormFloat64())
		if budget < 3 || rng.Intn(4) == 0 {
			c.feature = append(c.feature, -1-rng.Int31n(4))
			c.right = append(c.right, rng.Int31n(64)-32)
			return i
		}
		c.feature = append(c.feature, rng.Int31n(int32(nFeat)))
		c.right = append(c.right, 0)
		l := 1 + rng.Intn(budget-2)
		grow(l)
		c.right[i] = grow(budget - 1 - l)
		return i
	}
	grow(budget)
	return c
}

// appendV2TreeBody writes one tree body as a version-2 writer did (see
// binReader.treeBody): no importances, a zero config and zero sample
// counts.
func appendV2TreeBody(buf []byte, c nodeTable, nFeat int) []byte {
	n := len(c.feature)
	buf = appendU64(buf, uint64(n))
	buf = appendU64(buf, uint64(nFeat))
	buf = appendU64(buf, 0)
	buf = appendTreeConfig(buf, TreeConfig{})
	buf = appendI32s(buf, c.feature)
	buf = appendI32s(buf, c.right)
	buf = append(buf, make([]byte, 4*n)...)
	buf = appendPad8(buf, 3*n, 4)
	buf = appendF64s(buf, c.threshold)
	return appendF64s(buf, c.value)
}

// v2Payload writes tables as a version-2 model payload: a tree for one
// table, a forest for more.
func v2Payload(tables []nodeTable, nFeat int) []byte {
	if len(tables) == 1 {
		return appendV2TreeBody(appendU64(nil, binKindTree), tables[0], nFeat)
	}
	buf := appendU64(nil, binKindForest)
	buf = appendI64(buf, int64(len(tables)))
	buf = appendI64(buf, 0)
	buf = appendI64(buf, 1)
	buf = appendU64(buf, uint64(nFeat))
	buf = appendTreeConfig(buf, TreeConfig{})
	buf = appendU64(buf, uint64(len(tables)))
	for _, c := range tables {
		buf = appendV2TreeBody(buf, c, nFeat)
	}
	return buf
}

// walkTable returns a decoded model's walk table and roots.
func walkTable(t *testing.T, m Regressor) ([]hotNode, []int32) {
	t.Helper()
	switch v := m.(type) {
	case *DecisionTree:
		return v.nodes.hot[v.nodes.root:], []int32{0}
	case *Forest:
		return v.compiled.hot, v.compiled.roots
	}
	t.Fatalf("model %T has no walk table", m)
	return nil, nil
}

// recordsOK is adoptRecords' rule spelled with branches: roots start at
// 0 and rise inside the table; a leaf is feature -1, right 0; a split
// names a feature below nFeat and a right child past its left one
// inside its own tree.
func recordsOK(hot []hotNode, roots []int32, nFeat int) bool {
	if len(roots) == 0 || roots[0] != 0 {
		return false
	}
	for t, lo := range roots {
		hi := int32(len(hot))
		if t+1 < len(roots) {
			hi = roots[t+1]
		}
		if hi <= lo || int(hi) > len(hot) {
			return false
		}
		for i := lo; i < hi; i++ {
			n := hot[i]
			if n.feature < 0 {
				if n.feature != -1 || n.right != 0 {
					return false
				}
				continue
			}
			if int(n.feature) >= nFeat || n.right <= i+1 || n.right >= hi {
				return false
			}
		}
	}
	return true
}

// randomTables draws one to four random tables over one random arity.
func randomTables(rng *rand.Rand) ([]nodeTable, int) {
	nFeat := 1 + rng.Intn(5)
	tables := make([]nodeTable, 1+rng.Intn(4))
	for i := range tables {
		tables[i] = randomTable(rng, 1+rng.Intn(60), nFeat)
	}
	return tables, nFeat
}

// requireCorrupt fails unless err is a typed corruption.
func requireCorrupt(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("%s: got %v, want ErrCorruptArtifact", what, err)
	}
}

// TestRecordsAcceptWhatLegacyAccepts: every random table the legacy
// validate accepts decodes from version 2, converts to version 3 and
// decodes again to the same walk table, predicting the same bits.
func TestRecordsAcceptWhatLegacyAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3e3))
	for trial := 0; trial < 300; trial++ {
		tables, nFeat := randomTables(rng)
		for i := range tables {
			if err := tables[i].validate(nFeat); err != nil {
				t.Fatalf("trial %d: the generator drew a table legacy validate refuses: %v", trial, err)
			}
		}
		legacy, err := DecodeBinaryVersion(v2Payload(tables, nFeat), BinaryVersion2, nil)
		if err != nil {
			t.Fatalf("trial %d: version 2 refused: %v", trial, err)
		}
		bin, err := AppendBinary(nil, legacy)
		if err != nil {
			t.Fatal(err)
		}
		if len(bin) != BinaryLen(legacy) {
			t.Fatalf("trial %d: wrote %d bytes, BinaryLen says %d", trial, len(bin), BinaryLen(legacy))
		}
		v3, err := DecodeBinaryVersion(bin, BinaryVersionLatest, nil)
		if err != nil {
			t.Fatalf("trial %d: the version-3 conversion of an accepted table is refused: %v", trial, err)
		}
		lh, lr := walkTable(t, legacy)
		vh, vr := walkTable(t, v3)
		if len(lh) != len(vh) || len(lr) != len(vr) || !recordsOK(vh, vr, nFeat) {
			t.Fatalf("trial %d: %d records / %d roots became %d / %d", trial, len(lh), len(lr), len(vh), len(vr))
		}
		for i := range lh {
			if lh[i].feature != vh[i].feature || lh[i].right != vh[i].right || !sameBits(lh[i].threshold, vh[i].threshold) {
				t.Fatalf("trial %d: record %d = %+v, legacy %+v", trial, i, vh[i], lh[i])
			}
		}
		x := make([]float64, nFeat)
		for range 16 {
			for f := range x {
				x[f] = math.Round(rng.NormFloat64()*8) / 4
			}
			if a, b := legacy.Predict(x), v3.Predict(x); !sameBits(a, b) {
				t.Fatalf("trial %d: version 3 predicts %v, version 2 %v", trial, b, a)
			}
		}
	}
}

// TestRecordMutationsRefused applies each single-field defect to one
// node of a random accepted model, in its version-2 table and in its
// version-3 record, and requires both decoders to refuse it: a right
// child at or before the left child, a right child at or past the end
// of its tree (for a forest member, the next tree's root), a split on
// the feature one past the arity, and a payload cut in the middle of a
// record (of a column). A leaf whose feature is not -1 or whose right
// child is not 0 is refused by version 3 only: a legacy leaf's split
// fields are not part of the model (TestLeafSplitFieldsAreNotModel).
func TestRecordMutationsRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a1))
	decode := func(payload []byte, version int) error {
		_, err := DecodeBinaryVersion(payload, version, nil)
		return err
	}
	for trial := 0; trial < 200; trial++ {
		tables, nFeat := randomTables(rng)
		tr := rng.Intn(len(tables))
		c := tables[tr]
		var splits, leaves []int
		for i, f := range c.feature {
			if f >= 0 {
				splits = append(splits, i)
			} else {
				leaves = append(leaves, i)
			}
		}
		if len(splits) == 0 {
			continue
		}
		legacy, err := DecodeBinaryVersion(v2Payload(tables, nFeat), BinaryVersion2, nil)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := AppendBinary(nil, legacy)
		if err != nil {
			t.Fatal(err)
		}
		_, roots := walkTable(t, legacy)
		recordsAt := len(bin) - 16*len(tables[0].feature)
		for _, tab := range tables[1:] {
			recordsAt -= 16 * len(tab.feature)
		}
		recordsAt -= 4*len(tables) + pad8(len(tables), 4)
		base := int(roots[tr])
		end := base + len(c.feature)

		i := splits[rng.Intn(len(splits))]
		for _, m := range []struct {
			name    string
			feature int32 // the node's new feature and right child, tree-local
			right   int32
		}{
			{"right at the left child", c.feature[i], int32(i + 1)},
			{"right before its node", c.feature[i], int32(rng.Intn(i + 1))},
			{"right at the tree's end", c.feature[i], int32(len(c.feature))},
			{"split past the arity", int32(nFeat), c.right[i]},
		} {
			mutated := make([]nodeTable, len(tables))
			copy(mutated, tables)
			mc := nodeTable{feature: append([]int32(nil), c.feature...), threshold: c.threshold, value: c.value, right: append([]int32(nil), c.right...)}
			mc.feature[i], mc.right[i] = m.feature, m.right
			mutated[tr] = mc
			requireCorrupt(t, "version 2, "+m.name, decode(v2Payload(mutated, nFeat), BinaryVersion2))

			rec := append([]byte(nil), bin...)
			at := recordsAt + 16*(base+i)
			binary.LittleEndian.PutUint32(rec[at+8:], uint32(m.feature))
			binary.LittleEndian.PutUint32(rec[at+12:], uint32(m.right+int32(base)))
			requireCorrupt(t, "version 3, "+m.name, decode(rec, BinaryVersionLatest))
		}

		if len(leaves) > 0 {
			j := leaves[rng.Intn(len(leaves))]
			for _, leaf := range [][2]int32{{-2, 0}, {-1, 1}, {-1, int32(end - 1)}, {math.MinInt32, 0}} {
				rec := append([]byte(nil), bin...)
				at := recordsAt + 16*(base+j)
				binary.LittleEndian.PutUint32(rec[at+8:], uint32(leaf[0]))
				binary.LittleEndian.PutUint32(rec[at+12:], uint32(leaf[1]))
				requireCorrupt(t, "version 3, non-canonical leaf", decode(rec, BinaryVersionLatest))
			}
		}

		k := rng.Intn(end)
		requireCorrupt(t, "version 3 cut mid-record", decode(bin[:recordsAt+16*k+8], BinaryVersionLatest))
		v2 := v2Payload(tables, nFeat)
		requireCorrupt(t, "version 2 cut mid-column", decode(v2[:len(v2)-8*rng.Intn(len(c.feature))-4], BinaryVersion2))
	}
}

// TestRecordsValidatorMatchesSpec edits one field of one record of a
// random version-3 model to a value near a boundary and requires the
// decoder to accept exactly the tables recordsOK accepts.
func TestRecordsValidatorMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(0x77))
	accepted, refused := 0, 0
	for trial := 0; trial < 2000; trial++ {
		tables, nFeat := randomTables(rng)
		legacy, err := DecodeBinaryVersion(v2Payload(tables, nFeat), BinaryVersion2, nil)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := AppendBinary(nil, legacy)
		if err != nil {
			t.Fatal(err)
		}
		hot, roots := walkTable(t, legacy)
		hot = append([]hotNode(nil), hot...)
		recordsAt := len(bin) - 16*len(hot) - 4*len(roots) - pad8(len(roots), 4)
		i := rng.Intn(len(hot))
		n := int32(len(hot))
		near := []int32{-2, -1, 0, 1, int32(i), int32(i) + 1, int32(i) + 2, n - 1, n, n + 1,
			int32(nFeat) - 1, int32(nFeat), math.MaxInt32, math.MinInt32}
		for _, r := range roots {
			near = append(near, r-1, r, r+1)
		}
		v := near[rng.Intn(len(near))]
		rec := append([]byte(nil), bin...)
		if rng.Intn(2) == 0 {
			hot[i].feature = v
			binary.LittleEndian.PutUint32(rec[recordsAt+16*i+8:], uint32(v))
		} else {
			hot[i].right = v
			binary.LittleEndian.PutUint32(rec[recordsAt+16*i+12:], uint32(v))
		}
		_, err = DecodeBinaryVersion(rec, BinaryVersionLatest, nil)
		if want := recordsOK(hot, roots, nFeat); (err == nil) != want {
			t.Fatalf("trial %d: record %d = %+v in %d records, roots %v, %d features: decode error %v, spec accepts %v",
				trial, i, hot[i], len(hot), roots, nFeat, err, want)
		}
		if err == nil {
			accepted++
		} else {
			requireCorrupt(t, "spec refusal", err)
			refused++
		}
	}
	if accepted < 100 || refused < 100 {
		t.Fatalf("%d edits accepted, %d refused: the edits do not reach both sides of the rule", accepted, refused)
	}
}

// TestRecordVerdictBoundaryGrid holds recordsBad, the record check's
// branch-free verdict, to the rule spelled with compares and branches
// on every combination of a field at or beside each bound it meets:
// the feature around 0, -1 and the arity, the right child around its
// left child, the tree's end and both int32 limits, the record first,
// last or next to last in its tree, and trees ending as high as
// MaxInt32, where a subtraction in the wrong width would wrap. Each
// record is checked alone and behind a canonical leaf in the same
// call, so the per-record index step is covered too.
func TestRecordVerdictBoundaryGrid(t *testing.T) {
	spec := func(f, r, at, hi, nf int64) bool { // true when a walk could follow the record
		if f < 0 {
			return f == -1 && r == 0
		}
		return f < nf && r >= at+2 && r < hi
	}
	const maxI, minI = math.MaxInt32, math.MinInt32
	checked, accepted := 0, 0
	for _, nf := range []int64{1, 2, 7, maxI} {
		for _, hi := range []int64{1, 2, 3, 4, 1000, maxI - 1, maxI} {
			for _, lo := range []int64{0, hi / 2, hi - 3, hi - 1} {
				if lo < 0 {
					continue
				}
				for _, at := range []int64{lo, hi - 3, hi - 2, hi - 1} {
					if at < lo {
						continue
					}
					for _, f := range []int64{minI, -2, -1, 0, nf - 1, nf, maxI} {
						for _, r := range []int64{minI, -1, 0, at + 1, at + 2, hi - 1, hi, maxI} {
							if r > maxI {
								continue
							}
							rec := hotNode{feature: int32(f), right: int32(r)}
							want := spec(f, r, at, hi, nf)
							if got := recordsBad([]hotNode{rec}, at+2, hi, nf) == 0; got != want {
								t.Fatalf("feature %d, right %d at %d of [%d, %d), %d features: verdict accepts %v, spec %v", f, r, at, lo, hi, nf, got, want)
							}
							if at > lo {
								leaf := hotNode{feature: -1}
								if got := recordsBad([]hotNode{leaf, rec}, at+1, hi, nf) == 0; got != want {
									t.Fatalf("feature %d, right %d at %d behind a leaf at %d, tree end %d, %d features: verdict accepts %v, spec %v", f, r, at, at-1, hi, nf, got, want)
								}
							}
							checked++
							if want {
								accepted++
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 || accepted == checked {
		t.Fatalf("%d of %d grid records accepted: the grid does not reach both sides of the rule", accepted, checked)
	}
	t.Logf("%d records, %d accepted", checked, accepted)
}

// TestMisalignedRecordsAreCopied: a version-3 payload whose records do
// not sit on an 8-byte boundary cannot be read in place, so the decoder
// copies the record block once — the big-endian path too — and the
// model holds no owner, predicting what the aligned decode does.
func TestMisalignedRecordsAreCopied(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	X, y := randomRegression(rng, 120, 3)
	f := &Forest{NTrees: 5, Seed: 2}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bin, err := AppendBinary(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	backing := make([]byte, len(bin)+4)
	odd := backing[4:]
	copy(odd, bin)
	aligned, err := DecodeBinaryVersion(bin, BinaryVersionLatest, "owner")
	if err != nil {
		t.Fatal(err)
	}
	copied, err := DecodeBinaryVersion(odd, BinaryVersionLatest, "owner")
	if err != nil {
		t.Fatal(err)
	}
	e := copied.(*Forest).compiled
	if e.keep != nil || copied.(*Forest).trees[0].nodes.keep != nil || aligned.(*Forest).compiled.keep == nil {
		t.Fatalf("owners: copied ensemble %v, copied tree %v, aligned ensemble %v; want nil, nil, set",
			e.keep, copied.(*Forest).trees[0].nodes.keep, aligned.(*Forest).compiled.keep)
	}
	odd[len(odd)-16*len(e.hot)-8] ^= 0xff // a record byte: the copy must not see it
	for _, x := range X {
		if a, c := aligned.Predict(x), copied.Predict(x); !sameBits(a, c) {
			t.Fatalf("copied records predict %v, aligned %v", c, a)
		}
	}
}

// combTables lays out trees of per records each as one walk table over
// nFeat features: in each tree a split at every even index whose right
// child is two past it, leaves between, and a leaf to end the tree.
func combTables(rng *rand.Rand, trees, per, nFeat int) ([]hotNode, []int32) {
	hot := make([]hotNode, trees*per)
	roots := make([]int32, trees)
	for t := range roots {
		base := t * per
		roots[t] = int32(base)
		for i := range per {
			at := base + i
			if i%2 == 0 && i+2 < per {
				hot[at] = hotNode{threshold: math.Round(rng.NormFloat64()*8) / 4, feature: rng.Int31n(int32(nFeat)), right: int32(at + 2)}
			} else {
				hot[at] = hotNode{threshold: rng.NormFloat64(), feature: -1}
			}
		}
	}
	return hot, roots
}

// withGOMAXPROCS runs fn with the runtime's processor count at procs,
// which is what adoptRecords' fan-out reads.
func withGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestAdoptVerdictIndependentOfWorkers plants one kind of fault in two
// trees that fall in different blocks of adoptRecords' fan-out and
// requires the lower tree's refusal, word for word, at 1, 2 and 7
// processors, and the same walk table from the unfaulted records
// whatever the processor count. Each kind is planted twice: far apart
// (the first block and the last), and in adjacent blocks with the lower
// fault at the end of its block and the upper one at the start of its
// own, so the upper block usually reports first.
func TestAdoptVerdictIndependentOfWorkers(t *testing.T) {
	const trees, per, nFeat = 48, 1501, 3
	rng := rand.New(rand.NewSource(0xb10c))
	clean, roots := combTables(rng, trees, per, nFeat)
	blocks, perBlock := adoptBlocks(trees, len(clean))
	if blocks < 3 {
		t.Fatalf("%d trees of %d records make %d blocks of %d trees: too few blocks", trees, per, blocks, perBlock)
	}
	adopt := func(hot []hotNode, roots []int32) (*CompiledEnsemble, error) {
		members := make([]*DecisionTree, len(roots))
		for i := range members {
			members[i] = &DecisionTree{}
		}
		return adoptRecords(members, hot, roots, nFeat, nil)
	}

	// Splits sit at the even indices of a tree below per-1, leaves at
	// the odd ones and at per-1. late picks a tree's last split or leaf,
	// else its first.
	split := func(tree int, late bool) int {
		if late {
			return tree*per + per - 3
		}
		return tree * per
	}
	leaf := func(tree int, late bool) int {
		if late {
			return tree*per + per - 1
		}
		return tree*per + 1
	}
	kinds := []struct {
		name  string
		plant func(hot []hotNode, roots []int32, tree int, late bool) string // returns tree's refusal
	}{
		{"right child out of range", func(hot []hotNode, _ []int32, tree int, late bool) string {
			i, end := split(tree, late), (tree+1)*per
			hot[i].right = int32(end)
			return fmt.Sprintf("ml: corrupt tree: internal node %d of tree %d has right child %d outside (%d, %d)", i, tree, end, i+1, end)
		}},
		{"feature equal to the arity", func(hot []hotNode, _ []int32, tree int, late bool) string {
			i := split(tree, late)
			hot[i].feature = nFeat
			return fmt.Sprintf("ml: corrupt tree: internal node %d of tree %d splits on feature %d of %d", i, tree, nFeat, nFeat)
		}},
		{"non-canonical leaf", func(hot []hotNode, _ []int32, tree int, late bool) string {
			i := leaf(tree, late)
			hot[i].right = 1
			return fmt.Sprintf("ml: corrupt tree: leaf %d of tree %d has feature -1 and right child 1, not -1 and 0", i, tree)
		}},
		{"root below zero", func(hot []hotNode, roots []int32, tree int, _ bool) string {
			// Tree tree-1 now ends before it starts, and tree tree
			// starts below the table.
			roots[tree] = -5
			return fmt.Sprintf("ml: corrupt tree: tree %d spans records [%d, -5) of %d", tree-1, (tree-1)*per, len(hot))
		}},
	}
	for _, pair := range [][2]int{{3, trees - 4}, {perBlock - 1, perBlock}, {2*perBlock - 1, 2 * perBlock}} {
		for _, k := range kinds {
			hot, rs := slices.Clone(clean), slices.Clone(roots)
			want := k.plant(hot, rs, pair[0], true)
			k.plant(hot, rs, pair[1], false)
			for _, procs := range []int{1, 2, 7} {
				withGOMAXPROCS(procs, func() {
					for range 20 {
						if _, err := adopt(hot, rs); err == nil || err.Error() != want {
							t.Fatalf("%s in trees %v at %d processors: got %v, want %q", k.name, pair, procs, err, want)
						}
					}
				})
			}
		}
	}

	// A block that starts at a root below zero reports it rather than
	// indexing the table there.
	rs := slices.Clone(roots)
	rs[perBlock] = -5
	e := &CompiledEnsemble{hot: clean, roots: rs}
	if got := e.firstBadTreeIn(perBlock, 2*perBlock, nFeat); got != perBlock {
		t.Fatalf("a block starting at root -5 reports tree %d, want %d", got, perBlock)
	}

	var want *CompiledEnsemble
	x := make([]float64, nFeat)
	for _, procs := range []int{1, 2, 7} {
		withGOMAXPROCS(procs, func() {
			e, err := adopt(clean, roots)
			if err != nil {
				t.Fatalf("%d processors refuse the clean table: %v", procs, err)
			}
			if want == nil {
				want = e
				return
			}
			if &e.hot[0] != &want.hot[0] || len(e.hot) != len(want.hot) || !slices.Equal(e.roots, want.roots) {
				t.Fatalf("%d processors adopt a different walk table", procs)
			}
			for range 64 {
				for f := range x {
					x[f] = rng.NormFloat64() * 2
				}
				if a, b := e.Predict(x), want.Predict(x); !sameBits(a, b) {
					t.Fatalf("%d processors predict %v, one processor %v", procs, a, b)
				}
			}
		})
	}
}

// TestAdoptBlocksThreshold pins where adoptRecords' check fans out: a
// table of fewer than 2·adoptBlockMinRecords records is one block, and
// above that every block of equal-size trees holds at least
// adoptBlockMinRecords records, while the blocks cover the trees once,
// in order.
func TestAdoptBlocksThreshold(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 48, 100, 1000} {
		if blocks, perBlock := adoptBlocks(n, 2*adoptBlockMinRecords-1); blocks != 1 || perBlock != n {
			t.Fatalf("%d trees below two blocks of records: %d blocks of %d trees, want one of %d", n, blocks, perBlock, n)
		}
	}
	if blocks, perBlock := adoptBlocks(100, 2*adoptBlockMinRecords); blocks != 2 || perBlock != 50 {
		t.Fatalf("100 trees at two blocks of records: %d blocks of %d trees, want 2 of 50", blocks, perBlock)
	}
	for n := 1; n <= 200; n++ {
		for records := 2 * adoptBlockMinRecords; records <= 40*adoptBlockMinRecords; records += 997 {
			blocks, perBlock := adoptBlocks(n, records)
			if blocks < 1 || perBlock < 1 || blocks*perBlock > n || n-blocks*perBlock >= perBlock {
				t.Fatalf("%d trees, %d records: %d blocks of %d trees do not cover the trees once", n, records, blocks, perBlock)
			}
			if blocks > 1 && perBlock*records < adoptBlockMinRecords*n {
				t.Fatalf("%d trees, %d records: blocks of %d trees hold %d records on average, below %d",
					n, records, perBlock, perBlock*records/n, adoptBlockMinRecords)
			}
		}
	}
}
