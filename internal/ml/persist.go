package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence. The paper stresses that the model "is constructed
// once offline but used many times" (Section VI) — these functions
// serialise fitted estimators to JSON so a trained predictor can be
// shipped with an application and queried without retraining.
//
// SaveModel writes any supported fitted Regressor; LoadModel restores
// it. Supported: DecisionTree, Forest, LinearRegression, KNN,
// GradientBoosting, Bagging, Stacking, Pipeline (wrapping any of the
// former).
//
// This file is the jsonv1 side of the artifact codec layer
// (internal/artifact): SaveModel/LoadModel define the legacy JSON
// encoding that every registry written before the binary format keeps
// loading forever, and binary.go defines the lamb1 payload encoding of
// the same estimators. The two are interconvertible without loss and
// must stay prediction-bit-identical (asserted by the round-trip
// property test in internal/artifact).

// modelEnvelope tags the concrete type on disk.
type modelEnvelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// nodeDTO serialises one tree node (children by index; -1 = none).
type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Value     float64 `json:"v"`
	N         int     `json:"n"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

type treeDTO struct {
	Config      TreeConfig `json:"config"`
	NFeatures   int        `json:"n_features"`
	Importances []float64  `json:"importances"`
	Nodes       []nodeDTO  `json:"nodes"`
}

// The on-disk node list keeps explicit two-child form (the jsonv1
// forward-compat contract): the Left column is synthesised from the
// canonical implicit-left runtime layout on save (i+1 for internal
// nodes, -1 for leaves — exactly the bytes the pre-PR 8 format wrote,
// since the builder has always emitted canonical preorder) and folded
// back out on load. Loading canonicalises: any structurally valid
// explicit-child table — canonical or not — is re-emitted in preorder
// with the left child adjacent, a node permutation that leaves every
// prediction bit-identical.

func flattenTree(c *CompiledTree) []nodeDTO {
	nodes := make([]nodeDTO, c.Len())
	for i := range nodes {
		left := -1
		if c.feature[i] >= 0 {
			left = i + 1
		}
		nodes[i] = nodeDTO{
			Feature:   int(c.feature[i]),
			Threshold: c.threshold[i],
			Value:     c.value[i],
			N:         int(c.nSamples[i]),
			Left:      left,
			Right:     int(c.right[i]),
		}
	}
	return nodes
}

func compileNodes(nodes []nodeDTO) (CompiledTree, error) {
	n := len(nodes)
	feature := make([]int32, n)
	threshold := make([]float64, n)
	value := make([]float64, n)
	left := make([]int32, n)
	right := make([]int32, n)
	nSamples := make([]int32, n)
	for i, d := range nodes {
		feature[i] = int32(d.Feature)
		threshold[i] = d.Threshold
		value[i] = d.Value
		left[i] = int32(d.Left)
		right[i] = int32(d.Right)
		nSamples[i] = int32(d.N)
	}
	return canonicalTree(feature, threshold, value, left, right, nSamples)
}

// canonicalTree builds a canonical implicit-left CompiledTree from
// explicit child arrays, validating the structural invariants the
// legacy format promised (children exist and strictly follow their
// parent, ruling out cycles; every node reachable from the root).
// Tables already in canonical order — everything this codebase has
// ever written — are adopted without copying, preserving the binary
// codec's zero-copy decode; anything else is permuted into preorder,
// which leaves predictions bit-identical.
func canonicalTree(feature []int32, threshold, value []float64, left, right, nSamples []int32) (CompiledTree, error) {
	n := len(feature)
	if n == 0 {
		return CompiledTree{}, fmt.Errorf("ml: corrupt tree: empty node list")
	}
	if len(threshold) != n || len(value) != n || len(left) != n || len(right) != n || len(nSamples) != n {
		return CompiledTree{}, fmt.Errorf("ml: corrupt tree: ragged node arrays")
	}
	canonical := true
	for i := 0; i < n; i++ {
		if feature[i] < 0 {
			continue // leaf; child indices are ignored
		}
		l, r := left[i], right[i]
		if l <= int32(i) || r <= int32(i) || int(l) >= n || int(r) >= n {
			return CompiledTree{}, fmt.Errorf("ml: corrupt tree: internal node %d has children (%d, %d) outside (%d, %d)", i, l, r, i, n)
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
		return CompiledTree{}, fmt.Errorf("ml: corrupt tree: node graph is not a single tree (root subtree covers %d of %d nodes)", size[0], n)
	}
	c := CompiledTree{feature: feature, threshold: threshold, value: value, right: right, nSamples: nSamples}
	if !canonical {
		out := CompiledTree{
			feature:   make([]int32, n),
			threshold: make([]float64, n),
			value:     make([]float64, n),
			right:     make([]int32, n),
			nSamples:  make([]int32, n),
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
			out.nSamples[fr.new] = nSamples[fr.old]
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
	if err := c.validate(); err != nil {
		return CompiledTree{}, err
	}
	return c, nil
}

func (t *DecisionTree) toDTO() treeDTO {
	return treeDTO{
		Config:      t.Config,
		NFeatures:   t.nFeatures,
		Importances: t.importances,
		Nodes:       flattenTree(&t.nodes),
	}
}

func (t *DecisionTree) fromDTO(d treeDTO) error {
	nodes, err := compileNodes(d.Nodes)
	if err != nil {
		return err
	}
	t.Config = d.Config
	t.nFeatures = d.NFeatures
	t.importances = d.Importances
	t.nodes = nodes
	return nil
}

type forestDTO struct {
	NTrees    int        `json:"n_trees"`
	Tree      TreeConfig `json:"tree"`
	Bootstrap bool       `json:"bootstrap"`
	Seed      int64      `json:"seed"`
	NFeatures int        `json:"n_features"`
	Trees     []treeDTO  `json:"trees"`
}

type linregDTO struct {
	Lambda    float64   `json:"lambda"`
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
}

type knnDTO struct {
	K         int          `json:"k"`
	Weighting KNNWeighting `json:"weighting"`
	X         [][]float64  `json:"x"`
	Y         []float64    `json:"y"`
}

type gbrDTO struct {
	Init   float64   `json:"init"`
	Rate   float64   `json:"rate"`
	Stages []treeDTO `json:"stages"`
}

type pipelineDTO struct {
	Mean  []float64     `json:"mean"`
	Std   []float64     `json:"std"`
	Model modelEnvelope `json:"model"`
}

type baggingDTO struct {
	N          int             `json:"n"`
	SampleFrac float64         `json:"sample_frac"`
	Seed       int64           `json:"seed"`
	Models     []modelEnvelope `json:"models"`
}

type stackingDTO struct {
	PassThrough bool            `json:"pass_through"`
	KFold       int             `json:"kfold"`
	Seed        int64           `json:"seed"`
	Bases       []modelEnvelope `json:"bases"`
	Meta        modelEnvelope   `json:"meta"`
}

// SaveModel serialises a fitted regressor to w.
func SaveModel(w io.Writer, m Regressor) error {
	env, err := encodeModel(m)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(env)
}

func encodeModel(m Regressor) (*modelEnvelope, error) {
	var kind string
	var payload any
	switch v := m.(type) {
	case *DecisionTree:
		if !v.IsFitted() {
			return nil, fmt.Errorf("ml: cannot save unfitted DecisionTree")
		}
		kind, payload = "decision_tree", v.toDTO()
	case *Forest:
		if len(v.trees) == 0 {
			return nil, fmt.Errorf("ml: cannot save unfitted Forest")
		}
		d := forestDTO{NTrees: v.NTrees, Tree: v.Tree, Bootstrap: v.Bootstrap,
			Seed: v.Seed, NFeatures: v.nFeatures}
		for _, t := range v.trees {
			d.Trees = append(d.Trees, t.toDTO())
		}
		kind, payload = "forest", d
	case *LinearRegression:
		if !v.fitted {
			return nil, fmt.Errorf("ml: cannot save unfitted LinearRegression")
		}
		kind, payload = "linreg", linregDTO{Lambda: v.Lambda, Weights: v.weights, Intercept: v.intercept}
	case *KNN:
		if len(v.x) == 0 {
			return nil, fmt.Errorf("ml: cannot save unfitted KNN")
		}
		kind, payload = "knn", knnDTO{K: v.K, Weighting: v.Weighting, X: v.x, Y: v.y}
	case *GradientBoosting:
		if len(v.stages) == 0 {
			return nil, fmt.Errorf("ml: cannot save unfitted GradientBoosting")
		}
		d := gbrDTO{Init: v.init, Rate: v.rate}
		for _, t := range v.stages {
			d.Stages = append(d.Stages, t.toDTO())
		}
		kind, payload = "gbr", d
	case *Pipeline:
		if !v.fitted {
			return nil, fmt.Errorf("ml: cannot save unfitted Pipeline")
		}
		inner, err := encodeModel(v.Model)
		if err != nil {
			return nil, err
		}
		kind, payload = "pipeline", pipelineDTO{Mean: v.scaler.mean, Std: v.scaler.std, Model: *inner}
	case *Bagging:
		if len(v.models) == 0 {
			return nil, fmt.Errorf("ml: cannot save unfitted Bagging")
		}
		d := baggingDTO{N: v.N, SampleFrac: v.SampleFrac, Seed: v.Seed}
		for i, m := range v.models {
			inner, err := encodeModel(m)
			if err != nil {
				return nil, fmt.Errorf("ml: bagging member %d: %w", i, err)
			}
			d.Models = append(d.Models, *inner)
		}
		kind, payload = "bagging", d
	case *Stacking:
		if v.meta == nil {
			return nil, fmt.Errorf("ml: cannot save unfitted Stacking")
		}
		d := stackingDTO{PassThrough: v.PassThrough, KFold: v.KFold, Seed: v.Seed}
		for i, b := range v.bases {
			inner, err := encodeModel(b)
			if err != nil {
				return nil, fmt.Errorf("ml: stacking base %d: %w", i, err)
			}
			d.Bases = append(d.Bases, *inner)
		}
		meta, err := encodeModel(v.meta)
		if err != nil {
			return nil, fmt.Errorf("ml: stacking meta model: %w", err)
		}
		d.Meta = *meta
		kind, payload = "stacking", d
	default:
		return nil, fmt.Errorf("ml: SaveModel does not support %T", m)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return &modelEnvelope{Kind: kind, Data: raw}, nil
}

// LoadModel restores a regressor saved by SaveModel.
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
		if err := t.fromDTO(d); err != nil {
			return nil, err
		}
		return t, nil
	case "forest":
		var d forestDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		f := &Forest{NTrees: d.NTrees, Tree: d.Tree, Bootstrap: d.Bootstrap,
			Seed: d.Seed, nFeatures: d.NFeatures}
		for i, td := range d.Trees {
			t := &DecisionTree{}
			if err := t.fromDTO(td); err != nil {
				return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
			}
			f.trees = append(f.trees, t)
		}
		if len(f.trees) == 0 {
			return nil, fmt.Errorf("ml: corrupt forest: no trees")
		}
		var err error
		if f.compiled, err = compileEnsemble(f.trees, combineMean, 0, 0); err != nil {
			return nil, corruptf("%v", err)
		}
		return f, nil
	case "linreg":
		var d linregDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		if d.Weights == nil {
			return nil, fmt.Errorf("ml: corrupt linreg: no weights")
		}
		return &LinearRegression{Lambda: d.Lambda, weights: d.Weights,
			intercept: d.Intercept, fitted: true}, nil
	case "knn":
		var d knnDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		if len(d.X) == 0 || len(d.X) != len(d.Y) {
			return nil, fmt.Errorf("ml: corrupt knn payload")
		}
		return &KNN{K: d.K, Weighting: d.Weighting, x: d.X, y: d.Y}, nil
	case "gbr":
		var d gbrDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		g := &GradientBoosting{init: d.Init, rate: d.Rate}
		for i, td := range d.Stages {
			t := &DecisionTree{}
			if err := t.fromDTO(td); err != nil {
				return nil, fmt.Errorf("ml: boosting stage %d: %w", i, err)
			}
			g.stages = append(g.stages, t)
		}
		if len(g.stages) == 0 {
			return nil, fmt.Errorf("ml: corrupt gbr: no stages")
		}
		var err error
		if g.compiled, err = compileEnsemble(g.stages, combineBoosted, g.init, g.rate); err != nil {
			return nil, corruptf("%v", err)
		}
		return g, nil
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
		return p, nil
	case "bagging":
		var d baggingDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		if len(d.Models) == 0 {
			return nil, fmt.Errorf("ml: corrupt bagging: no members")
		}
		// NewBase is a factory and is not serialised: a loaded ensemble
		// predicts with its fitted members but cannot be refitted.
		b := &Bagging{N: d.N, SampleFrac: d.SampleFrac, Seed: d.Seed}
		for i, env := range d.Models {
			m, err := decodeModel(env)
			if err != nil {
				return nil, fmt.Errorf("ml: bagging member %d: %w", i, err)
			}
			b.models = append(b.models, m)
		}
		var err error
		if b.compiled, err = compileBaggedTrees(b.models); err != nil {
			return nil, corruptf("%v", err)
		}
		return b, nil
	case "stacking":
		var d stackingDTO
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return nil, err
		}
		if len(d.Bases) == 0 {
			return nil, fmt.Errorf("ml: corrupt stacking: no base models")
		}
		// Like Bagging, the factories (NewBases/NewMeta) are not
		// serialised; the fitted bases and meta model are.
		s := &Stacking{PassThrough: d.PassThrough, KFold: d.KFold, Seed: d.Seed}
		for i, env := range d.Bases {
			m, err := decodeModel(env)
			if err != nil {
				return nil, fmt.Errorf("ml: stacking base %d: %w", i, err)
			}
			s.bases = append(s.bases, m)
		}
		meta, err := decodeModel(d.Meta)
		if err != nil {
			return nil, fmt.Errorf("ml: stacking meta model: %w", err)
		}
		s.meta = meta
		return s, nil
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
}
