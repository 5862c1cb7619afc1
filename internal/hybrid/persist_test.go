package hybrid

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

func TestHybridSaveLoadRoundTrip(t *testing.T) {
	full, am := syntheticWorkload(800, 31)
	rng := rand.New(rand.NewSource(1))
	train, test, _ := full.SampleFraction(0.1, rng)
	for _, cfg := range []Config{
		{Seed: 3},
		{Seed: 3, Mode: ResidualMode},
		{Seed: 3, Mode: RatioMode},
		{Seed: 3, Aggregate: true, AggregateWeight: 0.7},
	} {
		orig, err := TrainCtx(context.Background(), train, am, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, am)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			a, err := orig.Predict(test.X[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.Predict(test.X[i])
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("cfg %+v sample %d: original %v, reloaded %v", cfg, i, a, b)
			}
		}
	}
}

func TestHybridLoadValidation(t *testing.T) {
	_, am := syntheticWorkload(10, 32)
	if _, err := Load(strings.NewReader("{}"), nil); err == nil {
		t.Error("expected error without analytical model")
	}
	if _, err := Load(strings.NewReader("not json"), am); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Load(strings.NewReader(`{"n_features":0,"ml":{}}`), am); err == nil {
		t.Error("expected corrupt-features error")
	}
	if _, err := Load(strings.NewReader(`{"n_features":2,"ml":{"kind":"martian","data":{}}}`), am); err == nil {
		t.Error("expected ML decode error")
	}
}

func TestHybridSaveUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Model{}).Save(&buf); err == nil {
		t.Error("expected error saving untrained model")
	}
}
