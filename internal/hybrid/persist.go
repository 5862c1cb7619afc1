package hybrid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"lam/internal/ml"
)

// Persistence for trained hybrid models. The analytical model is a
// closed-form function and is not serialised — Load takes it as an
// argument (it is reconstructed from the machine description, exactly
// as at training time). The fitted ML component and coupling
// configuration are stored.

type modelDTO struct {
	Mode            Mode            `json:"mode"`
	Aggregate       bool            `json:"aggregate"`
	AggregateWeight float64         `json:"aggregate_weight"`
	NFeatures       int             `json:"n_features"`
	ML              json.RawMessage `json:"ml"`
}

// Save serialises the trained hybrid model. The ML component must be
// one of the types internal/ml can persist (the default extra-trees
// pipeline is).
func (m *Model) Save(w io.Writer) error {
	if m.mlModel == nil {
		return fmt.Errorf("hybrid: cannot save untrained model")
	}
	var mlBuf bytes.Buffer
	if err := ml.SaveModel(&mlBuf, m.mlModel); err != nil {
		return fmt.Errorf("hybrid: saving ML component: %w", err)
	}
	dto := modelDTO{
		Mode:            m.cfg.Mode,
		Aggregate:       m.cfg.Aggregate,
		AggregateWeight: m.cfg.AggregateWeight,
		NFeatures:       m.nFeatures,
		ML:              json.RawMessage(mlBuf.Bytes()),
	}
	return json.NewEncoder(w).Encode(dto)
}

// Load restores a hybrid model saved with Save, reattaching the
// analytical model.
func Load(r io.Reader, am AnalyticalModel) (*Model, error) {
	if am == nil {
		return nil, fmt.Errorf("hybrid: Load requires the analytical model")
	}
	var dto modelDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("hybrid: decoding model: %w", err)
	}
	if dto.NFeatures <= 0 {
		return nil, fmt.Errorf("hybrid: corrupt model: %d features", dto.NFeatures)
	}
	mlModel, err := ml.LoadModel(bytes.NewReader(dto.ML))
	if err != nil {
		return nil, fmt.Errorf("hybrid: loading ML component: %w", err)
	}
	if err := checkDecoded(dto.Mode, dto.NFeatures, mlModel); err != nil {
		return nil, err
	}
	return &Model{
		cfg: Config{
			Mode:            dto.Mode,
			Aggregate:       dto.Aggregate,
			AggregateWeight: dto.AggregateWeight,
		},
		am:        am,
		mlModel:   mlModel,
		nFeatures: dto.NFeatures,
	}, nil
}
