package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// hopStub is a loopback replica that answers every model request with
// a fixed body and the headers lam-serve sets (Content-Type, an exact
// Content-Length and the trace echo), so what a request through the
// gateway allocates beyond a direct request is the hop's alone.
func hopStub(t *testing.T, answer []byte) *httptest.Server {
	t.Helper()
	length := strconv.Itoa(len(answer))
	return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", length)
		if id := r.Header.Get("X-Lam-Trace"); id != "" {
			h.Set("X-Lam-Trace", id)
		}
		_, _ = w.Write(answer)
	})
}

// perRequest returns the objects and bytes one call of do allocates,
// averaged over n calls after a warm-up, counted process-wide: the
// client, the gateway and the stub all run in this process.
func perRequest(t *testing.T, n int, do func() error) (objects, bytes float64) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if err := do(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := do(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestProxyAllocations pins what the gateway hop allocates per proxied
// request: a single-row /predict and a 32-row /observe sent through the
// gateway to a loopback replica, less the same request sent to the
// replica directly. The difference is the gateway's own code, its
// net/http server side and its Transport round trip; the ceilings are
// the measured values plus a small margin.
func TestProxyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	predictAnswer := []byte(`{"model":"m","version":1,"y":0.0123456789}` + "\n")
	observeAnswer := []byte(`{"model":"m","version":1,"ingested":32,"drift":{"mape":4.25,"baseline_mape":4.1,` +
		`"samples":512,"drifted":false,"retraining":false,"retrains":0}}` + "\n")
	var row32 strings.Builder
	for i := 0; i < 32; i++ {
		if i > 0 {
			row32.WriteByte(',')
		}
		fmt.Fprintf(&row32, "[%d,%d,%d,%d]", 64+i, 128+i, 16, 1+i%4)
	}
	cases := []struct {
		name, path string
		body       []byte
		answer     []byte
		maxObjects float64
		maxBytes   float64
	}{
		{"predict single row", "/predict", []byte(`{"model":"m","x":[256,128,16,2]}`), predictAnswer, maxHopPredictObjects, maxHopPredictBytes},
		{"observe 32 rows", "/observe", []byte(`{"model":"m","batch":[` + row32.String() + `],"y_batch":[` +
			strings.TrimSuffix(strings.Repeat("0.5,", 32), ",") + `]}`), observeAnswer, maxHopObserveObjects, maxHopObserveBytes},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stub := hopStub(t, c.answer)
			g, err := New([]string{stub.URL}, Config{Health: slowHealth})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			gw := httptest.NewServer(g.Handler())
			defer gw.Close()
			cli := &http.Client{Transport: &http.Transport{}}
			defer cli.CloseIdleConnections()
			var got bytes.Buffer
			post := func(url string) func() error {
				rd := bytes.NewReader(c.body)
				return func() error {
					rd.Reset(c.body)
					req, err := http.NewRequest(http.MethodPost, url+c.path, rd)
					if err != nil {
						return err
					}
					req.Header.Set("Content-Type", "application/json")
					resp, err := cli.Do(req)
					if err != nil {
						return err
					}
					got.Reset()
					_, err = got.ReadFrom(resp.Body)
					resp.Body.Close()
					if err == nil && (resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), c.answer)) {
						err = fmt.Errorf("status %d, body %q", resp.StatusCode, got.Bytes())
					}
					return err
				}
			}
			const n = 2000
			directObj, directB := perRequest(t, n, post(stub.URL))
			viaObj, viaB := perRequest(t, n, post(gw.URL))
			hopObj, hopB := viaObj-directObj, viaB-directB
			t.Logf("direct %.1f objects %.0f B; through the gateway %.1f objects %.0f B; hop %.1f objects %.0f B",
				directObj, directB, viaObj, viaB, hopObj, hopB)
			if hopObj > c.maxObjects || hopB > c.maxBytes {
				t.Fatalf("the gateway hop allocates %.1f objects, %.0f B per request, want <= %.0f, %.0f",
					hopObj, hopB, c.maxObjects, c.maxBytes)
			}
		})
	}
}

// The gateway hop's measured allocation per proxied request (89 and 90
// objects, 7.25 and 7.27 kB on linux/amd64, go1.24), pinned as ceilings
// with a small margin. An outbound that never went back to its pool
// would add its 8 kB relay buffer to every request.
const (
	maxHopPredictObjects = 92
	maxHopPredictBytes   = 7600
	maxHopObserveObjects = 93
	maxHopObserveBytes   = 7600
)
