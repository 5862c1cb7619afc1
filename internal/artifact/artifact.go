package artifact

import (
	"fmt"
	"io"

	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// Payload kinds: the two shapes of trained model the registry stores.
// The string values match internal/registry's Meta.Kind.
const (
	KindHybrid    = "hybrid"
	KindRegressor = "regressor"
)

// Codec names. FormatLAMB1 is the format every artifact is written
// in; FormatJSONV1 is the legacy encoding, which keeps loading forever
// and is never written.
const (
	FormatJSONV1 = "jsonv1"
	FormatLAMB1  = "lamb1"
)

// Payload is one trained model on its way to or from disk: exactly one
// of Hybrid or Regressor is set.
type Payload struct {
	Hybrid    *hybrid.Model
	Regressor ml.Regressor
}

// Kind returns KindHybrid or KindRegressor.
func (p *Payload) Kind() string {
	if p.Hybrid != nil {
		return KindHybrid
	}
	return KindRegressor
}

// Stats summarises the payload's structure (estimator kind, member
// tree count, flat-table node count) for lam-model info.
func (p *Payload) Stats() ml.ModelStats {
	if p.Hybrid != nil {
		s := ml.StatsOf(p.Hybrid.ML())
		s.Kind = "hybrid(" + s.Kind + ")"
		return s
	}
	return ml.StatsOf(p.Regressor)
}

func (p *Payload) validate() error {
	if p == nil || (p.Hybrid == nil) == (p.Regressor == nil) {
		return fmt.Errorf("artifact: payload must carry exactly one of a hybrid model or a regressor")
	}
	return nil
}

// DecodeOptions parameterise Decode.
type DecodeOptions struct {
	// Kind is the expected payload kind (KindHybrid / KindRegressor),
	// normally taken from registry metadata. Empty means "whatever the
	// artifact says" — jsonv1 then sniffs the document shape.
	Kind string
	// Analytical is the analytical model to reattach to hybrid
	// payloads (rebuilt from the (workload, machine) metadata by the
	// registry). Required when the payload is hybrid.
	Analytical hybrid.AnalyticalModel
	// Owner keeps the artifact bytes valid when they are not Go heap
	// memory: the registry passes the owner of a file mapping, which
	// every decoded tree and ensemble whose walk table aliases the
	// bytes (lamb1 version 3) then holds. Nil for heap bytes, which
	// those aliases keep alive themselves. Either way the bytes must
	// not change while a decoded model is in use.
	Owner any
}

// Codec encodes and decodes model payloads in one on-disk format.
type Codec interface {
	// Name returns the format name recorded in registry metadata.
	Name() string
	// Encode writes p to w. Read-only legacy codecs refuse.
	Encode(w io.Writer, p *Payload) error
	// Decode restores a payload from a complete artifact. Corrupt
	// input fails with an error wrapping lamerr.ErrCorruptArtifact and
	// never panics.
	Decode(data []byte, opts DecodeOptions) (*Payload, error)
	// Sniff reports whether prefix (the artifact's leading bytes, at
	// least 8 when the file has them) looks like this format.
	Sniff(prefix []byte) bool
}

// codecs is the codec registry, in detection-priority order: lamb1's
// 8-byte magic cannot occur at the start of a JSON document, so the
// binary codec sniffs first.
var codecs = []Codec{lamb1Codec{}, jsonv1Codec{}}

// Formats lists the registered codec names in detection order.
func Formats() []string {
	out := make([]string, len(codecs))
	for i, c := range codecs {
		out[i] = c.Name()
	}
	return out
}

// ByName resolves a codec by format name.
func ByName(name string) (Codec, error) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("artifact: unknown format %q (have %v)", name, Formats())
}

// Detect picks the codec for an artifact from its leading bytes. An
// artifact matching no registered codec is corrupt.
func Detect(data []byte) (Codec, error) {
	for _, c := range codecs {
		if c.Sniff(data) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("artifact: %w: unrecognised artifact (no codec magic matched %d-byte prefix)",
		lamerr.ErrCorruptArtifact, min(len(data), 8))
}

// Info describes one artifact for inspection (lam-model info).
type Info struct {
	// Format is the codec name the artifact is encoded with.
	Format string `json:"format"`
	// Version is the lamb1 format version (1, 2 or 3), zero for
	// jsonv1. Registry Convert rewrites every version but the latest.
	Version int `json:"version,omitempty"`
	// Kind is KindHybrid or KindRegressor.
	Kind string `json:"kind"`
	// Estimator is the decoded model's structural kind, e.g.
	// "pipeline(forest)" or "hybrid(pipeline(forest))".
	Estimator string `json:"estimator"`
	// Trees and Nodes count the flat node tables (zero for non-tree
	// estimators).
	Trees int `json:"trees"`
	Nodes int `json:"nodes"`
	// NodeLayout is the on-disk node encoding: "implicit-left" for
	// lamb1 version-2 and version-3 payloads (no left-child array),
	// "explicit-children" for version-1 and jsonv1 artifacts. Empty for
	// non-tree estimators.
	NodeLayout string `json:"node_layout,omitempty"`
	// SizeBytes is the artifact's total encoded size.
	SizeBytes int `json:"size_bytes"`
	// CRC32 is the lamb1 trailer checksum (Castagnoli), zero for
	// formats without one.
	CRC32 uint32 `json:"crc32,omitempty"`
}

// Legacy reports whether the artifact is in a format or version that
// is no longer written: jsonv1, or lamb1 before the latest version.
// Registry Convert rewrites exactly these.
func (i Info) Legacy() bool {
	return i.Format != FormatLAMB1 || i.Version != lamb1VersionLatest
}

// Inspect detects an artifact's codec, decodes it, and summarises it.
// The decoded payload is returned alongside so callers (lam-model
// convert) don't pay a second decode.
func Inspect(data []byte, opts DecodeOptions) (Info, *Payload, error) {
	c, err := Detect(data)
	if err != nil {
		return Info{}, nil, err
	}
	p, err := c.Decode(data, opts)
	if err != nil {
		return Info{}, nil, err
	}
	stats := p.Stats()
	info := Info{
		Format:    c.Name(),
		Kind:      p.Kind(),
		Estimator: stats.Kind,
		Trees:     stats.Trees,
		Nodes:     stats.Nodes,
		SizeBytes: len(data),
	}
	if stats.Trees > 0 {
		info.NodeLayout = "explicit-children"
	}
	if c.Name() == FormatLAMB1 {
		info.CRC32 = lamb1TrailerCRC(data)
		info.Version = lamb1FormatVersion(data)
		if stats.Trees > 0 && info.Version >= lamb1Version2 {
			info.NodeLayout = "implicit-left"
		}
	}
	return info, p, nil
}
