package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// The legacy JSON encoding (jsonv1). Fitted estimators are published
// in the lamb1 binary format (binary.go); LoadModel is kept so that
// every registry written before the binary format keeps loading
// forever. It restores a DecisionTree, a Forest or a Pipeline wrapping
// either, bit-identical in prediction to the lamb1 decode of the same
// model (asserted over the committed goldens in internal/artifact),
// and refuses the kinds of the retired estimators (linreg, knn, gbr,
// bagging, stacking) by name.

// modelEnvelope tags the concrete type on disk.
type modelEnvelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// nodeDTO is one tree node of a document (children by index; -1 = none).
// A document's per-node sample counts ("n") are not part of the model
// and are not read.
type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Value     float64 `json:"v"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

type treeDTO struct {
	Config      TreeConfig `json:"config"`
	NFeatures   int        `json:"n_features"`
	Importances []float64  `json:"importances"`
	Nodes       []nodeDTO  `json:"nodes"`
}

// The on-disk node list is in explicit two-child form; its Left column
// is folded out on load. Loading canonicalises: any structurally valid
// explicit-child table — canonical or not — is re-emitted in preorder
// with the left child adjacent, a node permutation that leaves every
// prediction bit-identical.

func compileNodes(nodes []nodeDTO, nFeatures int) (nodeTable, error) {
	n := len(nodes)
	feature := make([]int32, n)
	threshold := make([]float64, n)
	value := make([]float64, n)
	left := make([]int32, n)
	right := make([]int32, n)
	for i, d := range nodes {
		feature[i] = int32(d.Feature)
		threshold[i] = d.Threshold
		value[i] = d.Value
		left[i] = int32(d.Left)
		right[i] = int32(d.Right)
	}
	return canonicalTree(feature, threshold, value, left, right, nFeatures)
}

// canonicalTree builds a canonical implicit-left node table over
// nFeatures features from explicit child arrays, validating the
// structural invariants the legacy format promised (children exist and
// strictly follow their parent, ruling out cycles; every node reachable
// from the root) and every split's feature index (see validate).
// Tables already in canonical order — everything this codebase has
// ever written — are adopted without copying, preserving the binary
// codec's zero-copy column reads; anything else is permuted into
// preorder, which leaves predictions bit-identical.
func canonicalTree(feature []int32, threshold, value []float64, left, right []int32, nFeatures int) (nodeTable, error) {
	n := len(feature)
	if n == 0 {
		return nodeTable{}, fmt.Errorf("ml: corrupt tree: empty node list")
	}
	if len(threshold) != n || len(value) != n || len(left) != n || len(right) != n {
		return nodeTable{}, fmt.Errorf("ml: corrupt tree: ragged node arrays")
	}
	canonical := true
	for i := 0; i < n; i++ {
		if feature[i] < 0 {
			continue // leaf; child indices are ignored
		}
		l, r := left[i], right[i]
		if l <= int32(i) || r <= int32(i) || int(l) >= n || int(r) >= n {
			return nodeTable{}, fmt.Errorf("ml: corrupt tree: internal node %d has children (%d, %d) outside (%d, %d)", i, l, r, i, n)
		}
		if l != int32(i)+1 {
			canonical = false
		}
	}
	// Subtree sizes, children-after-parent order makes one descending
	// pass suffice; the root's size doubles as a reachability check.
	size := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		if feature[i] < 0 {
			size[i] = 1
		} else {
			size[i] = 1 + size[left[i]] + size[right[i]]
		}
	}
	if size[0] != int32(n) {
		return nodeTable{}, fmt.Errorf("ml: corrupt tree: node graph is not a single tree (root subtree covers %d of %d nodes)", size[0], n)
	}
	c := nodeTable{feature: feature, threshold: threshold, value: value, right: right}
	if !canonical {
		out := nodeTable{
			feature:   make([]int32, n),
			threshold: make([]float64, n),
			value:     make([]float64, n),
			right:     make([]int32, n),
		}
		type frame struct{ old, new int32 }
		stack := make([]frame, 1, 64)
		stack[0] = frame{0, 0}
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out.feature[fr.new] = feature[fr.old]
			out.threshold[fr.new] = threshold[fr.old]
			out.value[fr.new] = value[fr.old]
			if feature[fr.old] < 0 {
				out.right[fr.new] = -1
				continue
			}
			l, r := left[fr.old], right[fr.old]
			rNew := fr.new + 1 + size[l]
			out.right[fr.new] = rNew
			stack = append(stack, frame{r, rNew}, frame{l, fr.new + 1})
		}
		c = out
	}
	if err := c.validate(nFeatures); err != nil {
		return nodeTable{}, err
	}
	return c, nil
}

// fromDTO restores t from its document but its nodes, which it returns
// as the node table for compileEnsemble.
func (t *DecisionTree) fromDTO(d treeDTO) (nodeTable, error) {
	if d.NFeatures < 1 || d.NFeatures > math.MaxInt32 {
		return nodeTable{}, corruptf("tree over %d features", d.NFeatures)
	}
	nodes, err := compileNodes(d.Nodes, d.NFeatures)
	if err != nil {
		return nodeTable{}, err
	}
	t.Config = d.Config
	t.nFeatures = d.NFeatures
	t.importances = d.Importances
	return nodes, nil
}

type forestDTO struct {
	NTrees    int        `json:"n_trees"`
	Tree      TreeConfig `json:"tree"`
	Bootstrap bool       `json:"bootstrap"`
	Seed      int64      `json:"seed"`
	NFeatures int        `json:"n_features"`
	Trees     []treeDTO  `json:"trees"`
}

type pipelineDTO struct {
	Mean  []float64     `json:"mean"`
	Std   []float64     `json:"std"`
	Model modelEnvelope `json:"model"`
}

// LoadModel restores a regressor from its jsonv1 document.
func LoadModel(r io.Reader) (Regressor, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("ml: decoding model envelope: %w", err)
	}
	return decodeModel(env)
}

func decodeModel(env modelEnvelope) (Regressor, error) {
	switch env.Kind {
	case "decision_tree":
		var d treeDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		t := &DecisionTree{}
		c, err := t.fromDTO(d)
		if err != nil {
			return nil, err
		}
		if _, err := compileEnsemble([]*DecisionTree{t}, []nodeTable{c}); err != nil {
			return nil, corruptf("%v", err)
		}
		return t, nil
	case "forest":
		var d forestDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		f := &Forest{NTrees: d.NTrees, Tree: d.Tree, Bootstrap: d.Bootstrap,
			Seed: d.Seed, nFeatures: d.NFeatures}
		tables := make([]nodeTable, 0, len(d.Trees))
		for i, td := range d.Trees {
			t := &DecisionTree{}
			c, err := t.fromDTO(td)
			if err != nil {
				return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
			}
			if t.nFeatures != f.nFeatures {
				return nil, corruptf("forest over %d features holds tree %d over %d", f.nFeatures, i, t.nFeatures)
			}
			f.trees, tables = append(f.trees, t), append(tables, c)
		}
		if len(f.trees) == 0 {
			return nil, fmt.Errorf("ml: corrupt forest: no trees")
		}
		var err error
		if f.compiled, err = compileEnsemble(f.trees, tables); err != nil {
			return nil, corruptf("%v", err)
		}
		return f, nil
	case "pipeline":
		var d pipelineDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		inner, err := decodeModel(d.Model)
		if err != nil {
			return nil, err
		}
		p := &Pipeline{Model: inner, fitted: true}
		p.scaler.mean = d.Mean
		p.scaler.std = d.Std
		if p.scaler.mean == nil || p.scaler.std == nil {
			return nil, fmt.Errorf("ml: corrupt pipeline: missing scaler state")
		}
		if len(d.Std) != len(d.Mean) {
			return nil, corruptf("pipeline scaler has %d means and %d deviations", len(d.Mean), len(d.Std))
		}
		if n, _ := NumFeaturesOf(inner); n != len(d.Mean) {
			return nil, corruptf("pipeline scales %d features for a model over %d", len(d.Mean), n)
		}
		return p, nil
	case "linreg", "knn", "gbr", "bagging", "stacking":
		return nil, retiredKindErr(env.Kind)
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
}
