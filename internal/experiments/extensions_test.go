package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lam/internal/machine"
)

func TestNoiseSensitivity(t *testing.T) {
	r, err := NoiseSensitivityCtx(context.Background(), Options{Seed: 5, Reps: 2, Trees: 20}, []float64{0.01, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("got %d series, want 3 (ET, hybrid, AM)", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.MeanMAPE) != 2 {
			t.Fatalf("series %s has %d points, want 2", s.Label, len(s.MeanMAPE))
		}
		for _, m := range s.MeanMAPE {
			if m <= 0 || m > 1000 {
				t.Errorf("series %s MAPE %v insane", s.Label, m)
			}
		}
	}
	// The hybrid should stay ahead of pure ML at both noise levels.
	et, hy := r.Series[0], r.Series[1]
	for i := range et.MeanMAPE {
		if hy.MeanMAPE[i] >= et.MeanMAPE[i] {
			t.Errorf("noise %v: hybrid %v should beat ET %v", et.Fractions[i], hy.MeanMAPE[i], et.MeanMAPE[i])
		}
	}
}

func TestHardwareTransfer(t *testing.T) {
	r, err := HardwareTransferCtx(context.Background(), Options{Seed: 5, Reps: 2, Trees: 20},
		machine.GenericXeon(), []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(r.Series))
	}
	et, hy := r.Series[0], r.Series[1]
	if hy.MeanMAPE[0] >= et.MeanMAPE[0] {
		t.Errorf("on the new machine the hybrid (%v) should beat pure ML (%v) at a 2%% budget",
			hy.MeanMAPE[0], et.MeanMAPE[0])
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "MAPE") {
		t.Error("transfer report should note the target-machine AM MAPE")
	}
}

func TestHardwareTransferDefaults(t *testing.T) {
	r, err := HardwareTransferCtx(context.Background(), Options{Seed: 5, Reps: 1, Trees: 10}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series[0].Fractions) != 3 {
		t.Errorf("default budgets = %v, want 3", r.Series[0].Fractions)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	r := &Report{Series: []Series{{
		Label: "m", Fractions: []float64{0.01, 0.02},
		MeanMAPE: []float64{10, 8}, StdMAPE: []float64{1, 1}, MedianMAPE: []float64{9.5, 7.9},
	}}}
	var buf bytes.Buffer
	if err := r.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "series,fraction") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "m,0.01,10,1,9.5") {
		t.Errorf("row = %q", lines[1])
	}
}
