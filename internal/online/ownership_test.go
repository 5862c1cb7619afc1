package online_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/serve"
)

// TestObservedRowsOutliveRequestPools sends /observe rows through a
// real server, then churns the decode pools with concurrent /predict
// and /observe traffic, and reads the first rows back through the
// window: whatever the request path pools, rows the plane was handed
// must keep their values.
func TestObservedRowsOutliveRequestPools(t *testing.T) {
	X := make([][]float64, 64)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{float64(i + 1), float64(2*i + 3), 0.5 + float64(i)}
		y[i] = 1 + float64(i%7)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(5, 1)}
	if err := et.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(et, registry.Meta{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg)
	srv.Workers = 1
	plane := online.New(reg, online.Config{DisableRetrain: true, WindowSize: 1024})
	defer plane.Close()
	srv.AttachOnline(plane)
	h := srv.Handler()
	post := func(path string, req map[string]any) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
			return
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Errorf("%s: %d %s", path, w.Code, w.Body)
		}
	}

	first := X[:16]
	post("/observe", map[string]any{"model": "m", "batch": first, "y_batch": y[:16]})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				lo := (g*16 + i) % 48
				post("/predict", map[string]any{"model": "m", "batch": X[lo : lo+16]})
				post("/observe", map[string]any{"model": "m", "batch": X[lo : lo+4], "y_batch": y[lo : lo+4]})
			}
		}(g)
	}
	wg.Wait()

	got := plane.WindowRows("m")
	if len(got) != len(first)+4*16*4 {
		t.Fatalf("window holds %d rows, want %d", len(got), len(first)+4*16*4)
	}
	for i, want := range first {
		if fmt.Sprint(bits(got[i])) != fmt.Sprint(bits(want)) {
			t.Fatalf("window row %d reads %v after the pools turned over, was sent as %v", i, got[i], want)
		}
	}
}

func bits(x []float64) []uint64 {
	b := make([]uint64, len(x))
	for i, v := range x {
		b[i] = math.Float64bits(v)
	}
	return b
}
