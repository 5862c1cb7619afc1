package hybrid

import (
	"encoding/binary"
	"fmt"
	"math"

	"lam/internal/lamerr"
	"lam/internal/ml"
)

// Binary persistence: the lamb1 payload encoding of a hybrid model,
// mirroring Save/Load exactly — the coupling configuration and the
// fitted ML component are stored, the analytical model is reattached by
// the caller. The body is a fixed 32-byte header (mode, aggregate flag,
// aggregate weight, feature arity — all 8-byte little-endian words, so
// the nested ML section stays 8-byte aligned) followed by the ML
// component in internal/ml's binary encoding. Inside a lamb1 file the
// ML section starts at byte 56, an odd word: its records need only
// 8-byte alignment to be read in place.

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
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.cfg.Mode)))
	var agg uint64
	if m.cfg.Aggregate {
		agg = 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, agg)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.cfg.AggregateWeight))
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
// walk table aliases it, as in ml.DecodeBinaryVersion. Corruption (short header, trailing bytes, a
// mangled ML section, parts that disagree — see checkDecoded) wraps
// lamerr.ErrCorruptArtifact.
func DecodeBinaryVersion(data []byte, am AnalyticalModel, version int, owner any) (*Model, error) {
	if am == nil {
		return nil, fmt.Errorf("hybrid: DecodeBinaryVersion requires the analytical model")
	}
	if len(data) < 32 {
		return nil, fmt.Errorf("hybrid: %w: short payload: %d bytes for a 32-byte header",
			lamerr.ErrCorruptArtifact, len(data))
	}
	mode := Mode(int64(binary.LittleEndian.Uint64(data[0:8])))
	aggregate := binary.LittleEndian.Uint64(data[8:16]) != 0
	weight := math.Float64frombits(binary.LittleEndian.Uint64(data[16:24]))
	nFeatures := int(int64(binary.LittleEndian.Uint64(data[24:32])))
	if nFeatures <= 0 {
		return nil, fmt.Errorf("hybrid: %w: %d features", lamerr.ErrCorruptArtifact, nFeatures)
	}
	mlModel, consumed, err := ml.DecodeBinaryPrefixVersion(data[32:], version, owner)
	if err != nil {
		return nil, fmt.Errorf("hybrid: loading ML component: %w", err)
	}
	if rest := len(data) - 32 - consumed; rest != 0 {
		return nil, fmt.Errorf("hybrid: %w: %d trailing bytes after ML component",
			lamerr.ErrCorruptArtifact, rest)
	}
	if err := checkDecoded(mode, nFeatures, mlModel); err != nil {
		return nil, err
	}
	return &Model{
		cfg: Config{
			Mode:            mode,
			Aggregate:       aggregate,
			AggregateWeight: weight,
		},
		am:        am,
		mlModel:   mlModel,
		nFeatures: nFeatures,
	}, nil
}

// checkDecoded refuses a decoded hybrid whose parts disagree: a mode
// Predict has no branch for, or an ML component whose arity is not
// what the mode feeds it — the features plus the analytical prediction
// under StackMode, the features alone otherwise. Either would
// otherwise serve a wrong answer or panic on the first predict.
func checkDecoded(mode Mode, nFeatures int, mlModel ml.Regressor) error {
	want := nFeatures
	switch mode {
	case StackMode:
		want++
	case ResidualMode, RatioMode:
	default:
		return fmt.Errorf("hybrid: %w: unknown coupling %v", lamerr.ErrCorruptArtifact, mode)
	}
	if got, _ := ml.NumFeaturesOf(mlModel); got != want {
		return fmt.Errorf("hybrid: %w: %v coupling over %d features needs an ML component over %d, artifact has %d",
			lamerr.ErrCorruptArtifact, mode, nFeatures, want, got)
	}
	return nil
}
