package hybrid

import (
	"encoding/binary"
	"fmt"
	"math"

	"lam/internal/lamerr"
	"lam/internal/ml"
)

// Binary persistence: the lamb1 payload encoding of a hybrid model,
// mirroring the legacy jsonv1 Load — the aggregate flag and the fitted ML
// component are stored, the analytical model is reattached by the
// caller. The body is a fixed 32-byte header (coupling, aggregate flag,
// aggregate weight, feature arity — all 8-byte little-endian words, so
// the nested ML section stays 8-byte aligned) followed by the ML
// component in internal/ml's binary encoding. The coupling and weight
// words are written as 0 (stacking, the plain average); the words stay
// so every committed artifact keeps its bytes, and a non-default value
// in either is refused (checkHeader). Inside a lamb1 file the ML
// section starts at byte 56, an odd word: its records need only 8-byte
// alignment to be read in place.

// ML returns the fitted ML component (nil before training). The
// artifact layer uses it for structural introspection (lam-model info);
// treat it as read-only.
func (m *Model) ML() ml.Regressor { return m.mlModel }

// AppendBinary appends the binary encoding of a trained hybrid model to
// buf and returns the extended slice.
func AppendBinary(buf []byte, m *Model) ([]byte, error) {
	if m == nil || m.mlModel == nil {
		return nil, fmt.Errorf("hybrid: cannot save untrained model")
	}
	var agg uint64
	if m.cfg.Aggregate {
		agg = 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, 0) // coupling: stacking
	buf = binary.LittleEndian.AppendUint64(buf, agg)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // weight: the plain average
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.nFeatures))
	out, err := ml.AppendBinary(buf, m.mlModel)
	if err != nil {
		return nil, fmt.Errorf("hybrid: saving ML component: %w", err)
	}
	return out, nil
}

// BinaryLen returns the number of bytes AppendBinary writes for a
// trained m (see ml.BinaryLen).
func BinaryLen(m *Model) int {
	if m == nil || m.mlModel == nil {
		return 0
	}
	return 32 + ml.BinaryLen(m.mlModel)
}

// DecodeBinaryVersion restores a hybrid model encoded by AppendBinary,
// reattaching the analytical model, and consumes the whole input.
// version is the ML payload version — the artifact layer passes the
// lamb1 header version down so artifacts of every earlier version keep
// decoding forever. owner keeps data valid while the ML component's
// walk table aliases it, as in ml.DecodeBinaryVersion. Corruption
// (short header, trailing bytes, a mangled ML section, a retired
// coupling or weight, parts that disagree — see checkHeader and
// checkArity) wraps lamerr.ErrCorruptArtifact.
func DecodeBinaryVersion(data []byte, am AnalyticalModel, version int, owner any) (*Model, error) {
	if am == nil {
		return nil, fmt.Errorf("hybrid: DecodeBinaryVersion requires the analytical model")
	}
	if len(data) < 32 {
		return nil, fmt.Errorf("hybrid: %w: short payload: %d bytes for a 32-byte header",
			lamerr.ErrCorruptArtifact, len(data))
	}
	coupling := int64(binary.LittleEndian.Uint64(data[0:8]))
	aggregate := binary.LittleEndian.Uint64(data[8:16]) != 0
	weight := math.Float64frombits(binary.LittleEndian.Uint64(data[16:24]))
	nFeatures := int(int64(binary.LittleEndian.Uint64(data[24:32])))
	if err := checkHeader(coupling, weight, nFeatures); err != nil {
		return nil, err
	}
	mlModel, consumed, err := ml.DecodeBinaryPrefixVersion(data[32:], version, owner)
	if err != nil {
		return nil, fmt.Errorf("hybrid: loading ML component: %w", err)
	}
	if rest := len(data) - 32 - consumed; rest != 0 {
		return nil, fmt.Errorf("hybrid: %w: %d trailing bytes after ML component",
			lamerr.ErrCorruptArtifact, rest)
	}
	if err := checkArity(nFeatures, mlModel); err != nil {
		return nil, err
	}
	return &Model{cfg: Config{Aggregate: aggregate}, am: am, mlModel: mlModel, nFeatures: nFeatures}, nil
}

// retiredCouplings names the coupling codes earlier builds wrote beside
// stacking (0). The codes stay reserved and are never reused.
var retiredCouplings = map[int64]string{1: "residual", 2: "ratio"}

// checkHeader refuses a hybrid header that today's Predict cannot
// honour: a retired or unknown coupling, an aggregate weight other than
// the plain average (0 and 0.5 both mean it), or no features. Each
// refusal wraps lamerr.ErrCorruptArtifact and, for a retired option,
// names it.
func checkHeader(coupling int64, weight float64, nFeatures int) error {
	if name, ok := retiredCouplings[coupling]; ok {
		return fmt.Errorf("hybrid: %w: retired coupling %q is refused: only stacking loads; re-train and publish again",
			lamerr.ErrCorruptArtifact, name)
	}
	if coupling != 0 {
		return fmt.Errorf("hybrid: %w: unknown coupling %d", lamerr.ErrCorruptArtifact, coupling)
	}
	if weight != 0 && weight != 0.5 {
		return fmt.Errorf("hybrid: %w: retired aggregate weight %v is refused: only the plain average loads; re-train and publish again",
			lamerr.ErrCorruptArtifact, weight)
	}
	if nFeatures <= 0 {
		return fmt.Errorf("hybrid: %w: %d features", lamerr.ErrCorruptArtifact, nFeatures)
	}
	return nil
}

// checkArity refuses a decoded hybrid whose ML component is not over
// the features plus the stacked analytical prediction: it would
// otherwise serve a wrong answer or panic on the first predict.
func checkArity(nFeatures int, mlModel ml.Regressor) error {
	if got, _ := ml.NumFeaturesOf(mlModel); got != nFeatures+1 {
		return fmt.Errorf("hybrid: %w: stack coupling over %d features needs an ML component over %d, artifact has %d",
			lamerr.ErrCorruptArtifact, nFeatures, nFeatures+1, got)
	}
	return nil
}
