package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// jsonv1Codec reads the legacy JSON encodings: a regressor payload is
// ml.LoadModel's document, a hybrid payload hybrid.Load's. Registries
// written before the binary format are jsonv1 registries; they keep
// loading forever. The codec is read-only: a legacy version is
// migrated to lamb1 (Registry.Convert), never written back.
type jsonv1Codec struct{}

func (jsonv1Codec) Name() string { return FormatJSONV1 }

// errReadOnly is what a read-only codec's Encode returns.
var errReadOnly = errors.New("artifact: jsonv1 is a read-only legacy format; artifacts are written as lamb1")

func (jsonv1Codec) Encode(io.Writer, *Payload) error { return errReadOnly }

// jsonv1Probe distinguishes the two jsonv1 document shapes when the
// caller doesn't say which to expect: the hybrid DTO carries an "ml"
// payload, the regressor envelope a "kind" tag.
type jsonv1Probe struct {
	Kind string          `json:"kind"`
	ML   json.RawMessage `json:"ml"`
}

func (jsonv1Codec) Decode(data []byte, opts DecodeOptions) (*Payload, error) {
	kind := opts.Kind
	if kind == "" {
		var probe jsonv1Probe
		if err := json.Unmarshal(data, &probe); err != nil {
			return nil, fmt.Errorf("artifact: %w: jsonv1: %v", lamerr.ErrCorruptArtifact, err)
		}
		switch {
		case probe.ML != nil:
			kind = KindHybrid
		case probe.Kind != "":
			kind = KindRegressor
		default:
			return nil, fmt.Errorf("artifact: %w: jsonv1 document is neither a model envelope nor a hybrid payload",
				lamerr.ErrCorruptArtifact)
		}
	}
	switch kind {
	case KindHybrid:
		if opts.Analytical == nil {
			return nil, fmt.Errorf("artifact: decoding a hybrid payload requires the analytical model")
		}
		hy, err := hybrid.Load(bytes.NewReader(data), opts.Analytical)
		if err != nil {
			return nil, fmt.Errorf("artifact: %w: jsonv1: %v", lamerr.ErrCorruptArtifact, err)
		}
		return &Payload{Hybrid: hy}, nil
	case KindRegressor:
		reg, err := ml.LoadModel(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("artifact: %w: jsonv1: %v", lamerr.ErrCorruptArtifact, err)
		}
		return &Payload{Regressor: reg}, nil
	default:
		return nil, fmt.Errorf("artifact: unknown payload kind %q", kind)
	}
}

// Sniff accepts anything starting (after ASCII whitespace) with a JSON
// object brace — exactly the documents the two jsonv1 writers produced.
func (jsonv1Codec) Sniff(prefix []byte) bool {
	for _, b := range prefix {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}
