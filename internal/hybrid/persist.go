package hybrid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"lam/internal/ml"
)

// The legacy JSON encoding (jsonv1) of a trained hybrid model: the
// coupling configuration and the fitted ML component's own jsonv1
// document. The analytical model is a closed-form function and was
// never serialised — Load takes it as an argument (it is reconstructed
// from the machine description, exactly as at training time). Hybrids
// are published in lamb1 (binary.go); Load keeps legacy artifacts
// loading.

type modelDTO struct {
	Mode            Mode            `json:"mode"`
	Aggregate       bool            `json:"aggregate"`
	AggregateWeight float64         `json:"aggregate_weight"`
	NFeatures       int             `json:"n_features"`
	ML              json.RawMessage `json:"ml"`
}

// Load restores a hybrid model from its jsonv1 document, reattaching
// the analytical model.
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
