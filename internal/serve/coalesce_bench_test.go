package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"lam/internal/experiments"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/registry"
)

// benchRegistry publishes a production-sized extra-trees ensemble
// (enough nodes that the compiled plane's tree-major batch traversal
// is active and single-row scoring is a real fraction of the request)
// into a fresh registry. Shared by both halves of the pair so they
// serve the identical model.
func benchRegistry(b *testing.B) (*registry.Registry, [][]float64) {
	b.Helper()
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	train, test, err := ds.SampleFraction(0.35, rng)
	if err != nil {
		b.Fatal(err)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(400, 7)}
	if err := et.Fit(train.X, train.Y); err != nil {
		b.Fatal(err)
	}
	reg, err := registry.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.SaveRegressor(et, registry.Meta{Name: "grid-et"}); err != nil {
		b.Fatal(err)
	}
	return reg, test.X[:256]
}

// benchmarkServeSingles drives the full /predict round trip for
// single-row requests from many concurrent clients — the workload the
// coalescer exists for. With coalesce=false every request walks the
// ensemble alone; with coalesce=true the requests that find the model
// busy share tree-major compiled batches. Run the pair:
//
//	go test ./internal/serve -run '^$' -bench 'ServeCoalesced|ServePerRequest' -cpu 2
//
// What the pair has shown on the 2-core development host is parity, not
// a win: 45.6-49.6 vs 42.3-48.6 µs/op over three runs each at -cpu 2
// (EXPERIMENTS.md, "Work-conserving coalescer"). The round trip is
// dominated by HTTP and JSON, so the pair guards against coalescing
// costing throughput under contention; it does not demonstrate a gain.
func benchmarkServeSingles(b *testing.B, coalesce bool) {
	reg, X := benchRegistry(b)
	srv := New(reg)
	srv.Workers = 1
	if coalesce {
		srv.Coalesce = CoalesceConfig{MaxBatch: 16}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	bodies := make([][]byte, len(X))
	for i, x := range X {
		body, err := json.Marshal(map[string]any{"model": "grid-et", "x": x})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}

	// Warm up outside the timed region: the first request pays the
	// one-time artifact deserialization into the hot-swap pointer.
	resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(bodies[0]))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warm-up status %d", resp.StatusCode)
	}

	// >= 32 concurrent clients regardless of GOMAXPROCS.
	b.SetParallelism(32/runtime.GOMAXPROCS(0) + 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			i++
		}
	})
}

// BenchmarkServeCoalesced / BenchmarkServePerRequest are the
// throughput-plane before/after pair: identical concurrent single-row
// load, with and without micro-batch coalescing.
func BenchmarkServeCoalesced(b *testing.B)  { benchmarkServeSingles(b, true) }
func BenchmarkServePerRequest(b *testing.B) { benchmarkServeSingles(b, false) }
