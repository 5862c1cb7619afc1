package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
)

// goldenSeed is the seed the committed figure goldens were taken at.
const goldenSeed = 42

//go:embed golden/figures_seed42.json
var goldenJSON []byte

// goldenFigure is one figure as the goldens store it.
type goldenFigure struct {
	Notes  []string       `json:"notes"`
	Series []goldenSeries `json:"series"`
}

type goldenSeries struct {
	Label  string    `json:"label"`
	Mean   []float64 `json:"mean_mape"`
	Std    []float64 `json:"std_mape"`
	Median []float64 `json:"median_mape"`
}

func toGolden(r *experiments.Report) goldenFigure {
	g := goldenFigure{Notes: r.Notes}
	for _, s := range r.Series {
		g.Series = append(g.Series, goldenSeries{s.Label, s.MeanMAPE, s.StdMAPE, s.MedianMAPE})
	}
	return g
}

// figureOracle decides whether a regenerated figure is right. On every
// seed the numbers must be finite and the analytical-model note must
// equal hybrid.AnalyticalMAPE computed here on the same dataset; at the
// golden seed and the paper's settings every number must also equal the
// committed goldens to 1e-9 relative.
type figureOracle struct {
	notes  map[string]string
	golden map[string]goldenFigure
}

func newFigureOracle(e *env, opts experiments.Options) (*figureOracle, error) {
	o := &figureOracle{notes: make(map[string]string)}
	bw := machine.BlueWatersXE6()
	for _, f := range figures {
		if f.id == "fig3a" {
			continue // pure-ML comparison: no analytical model, no note
		}
		ds, err := experiments.DatasetByName(f.dataset, bw, uint64(e.seed))
		if err != nil {
			return nil, err
		}
		am, err := experiments.AMByDataset(f.dataset, bw)
		if err != nil {
			return nil, err
		}
		mape, err := hybrid.AnalyticalMAPE(ds, am)
		if err != nil {
			return nil, err
		}
		o.notes[f.id] = fmt.Sprintf("standalone analytical model MAPE = %.1f%% (untuned)", mape)
	}
	if e.seed == goldenSeed && !e.tiny {
		if err := json.Unmarshal(goldenJSON, &o.golden); err != nil {
			return nil, fmt.Errorf("figure goldens: %w", err)
		}
	}
	return o, nil
}

func (o *figureOracle) check(r *experiments.Report) error {
	got := toGolden(r)
	for _, s := range got.Series {
		for _, col := range [][]float64{s.Mean, s.Std, s.Median} {
			for _, v := range col {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%s, %s: non-finite MAPE %v", r.ID, s.Label, v)
				}
			}
		}
	}
	if want, ok := o.notes[r.ID]; ok && (len(got.Notes) != 1 || got.Notes[0] != want) {
		return fmt.Errorf("%s: notes %q, want [%q]", r.ID, got.Notes, want)
	}
	if o.golden == nil {
		return nil
	}
	want, ok := o.golden[r.ID]
	if !ok || len(want.Series) != len(got.Series) {
		return fmt.Errorf("%s: no golden with %d series", r.ID, len(got.Series))
	}
	for i, ws := range want.Series {
		gs := got.Series[i]
		if gs.Label != ws.Label {
			return fmt.Errorf("%s: series %d is %q, golden %q", r.ID, i, gs.Label, ws.Label)
		}
		cols := []struct {
			name      string
			got, want []float64
		}{{"mean", gs.Mean, ws.Mean}, {"std", gs.Std, ws.Std}, {"median", gs.Median, ws.Median}}
		for _, c := range cols {
			if len(c.got) != len(c.want) {
				return fmt.Errorf("%s, %s: %d %s values, golden %d", r.ID, gs.Label, len(c.got), c.name, len(c.want))
			}
			for j := range c.want {
				if math.Abs(c.got[j]-c.want[j]) > 1e-9*math.Max(math.Abs(c.want[j]), 1e-300) {
					return fmt.Errorf("%s, %s: %s[%d] = %v, golden %v", r.ID, gs.Label, c.name, j, c.got[j], c.want[j])
				}
			}
		}
	}
	return nil
}

// writeGolden regenerates the figures at the golden seed and the
// paper's settings and stores them at path.
func writeGolden(path string) error {
	out := make(map[string]goldenFigure)
	for _, f := range figures {
		r, err := experiments.RunCtx(ctx, f.id, experiments.Options{Seed: goldenSeed, Reps: 7, Trees: 100})
		if err != nil {
			return err
		}
		out[f.id] = toGolden(r)
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
