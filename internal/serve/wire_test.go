package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
)

// TestBodyVerdictsPinned replays bodies on both sides of the codec's
// canonical subset and requires the status and bytes the handlers
// answered when encoding/json decoded every body: the scanner may only
// change how fast a body is decoded, never what it is answered.
func TestBodyVerdictsPinned(t *testing.T) {
	_, _, reg := loadedRegressorModel(t, t.TempDir())
	srv := New(reg)
	plane := online.New(reg, online.Config{DisableRetrain: true, Workers: 1})
	defer plane.Close()
	srv.AttachOnline(plane)
	h := srv.Handler()
	cases := []struct {
		path, body string
		status     int
		answer     string
	}{
		{"/predict", `{"model":"grid-et","version":1.0,"x":[1]}`, 400, `{"error":"serve: bad request: json: cannot unmarshal number 1.0 into Go struct field predictRequest.version of type int"}` + "\n"},
		{"/predict", `{"model":"grid-et","version":1e2,"x":[1]}`, 400, `{"error":"serve: bad request: json: cannot unmarshal number 1e2 into Go struct field predictRequest.version of type int"}` + "\n"},
		{"/predict", `{"model":"grid-et","x":[1e400]}`, 400, `{"error":"serve: bad request: json: cannot unmarshal number 1e400 into Go struct field predictRequest.x of type float64"}` + "\n"},
		{"/predict", `{"model":"grid-et","x":[1],"bogus":1}`, 400, `{"error":"serve: bad request: json: unknown field \"bogus\""}` + "\n"},
		{"/predict", `{"model":"grid-et","x":[1,2`, 400, `{"error":"serve: bad request: unexpected EOF"}` + "\n"},
		{"/predict", ``, 400, `{"error":"serve: bad request: EOF"}` + "\n"},
		{"/predict", `{"model":"grid-et","x":[01]}`, 400, `{"error":"serve: bad request: invalid character '1' after array element"}` + "\n"},
		{"/predict", `{"model":"grid-et","batch":[[1],null,"a"]}`, 400, `{"error":"serve: bad request: json: cannot unmarshal string into Go struct field predictRequest.batch of type []float64"}` + "\n"},
		{"/predict", `{"model":null,"x":[1]}`, 400, `{"error":"serve: bad request: missing \"model\""}` + "\n"},
		{"/predict", `{"Model":"grid-et","X":[1,2,3]}`, 200, `{"model":"grid-et","version":1,"y":0.015060035887662936}` + "\n"},
		{"/predict", `{"model":"grid-et","x":[1,2,3]}trailing`, 200, `{"model":"grid-et","version":1,"y":0.015060035887662936}` + "\n"},
		{"/predict", `{"model":"grid-et","x":[],"batch":[]}`, 400, `{"error":"ml: feature dimension mismatch: got 0 features, want 3"}` + "\n"},
		{"/observe", `{"model":"grid-et","version":1,"x":[1],"y":1}`, 400, `{"error":"serve: bad request: json: unknown field \"version\""}` + "\n"},
		{"/observe", `{"model":"grid-et","x":[1],"y":null}`, 400, `{"error":"serve: bad request: a single observation needs both \"x\" and \"y\""}` + "\n"},
		{"/observe", `{"model":"grid-et","batch":[[1,2,3]],"y_batch":[1e999]}`, 400, `{"error":"serve: bad request: json: cannot unmarshal number 1e999 into Go struct field observeRequest.y_batch of type float64"}` + "\n"},
		{"/observe", `{"model":"grid-et","batch":[[1,2,3]],"y_batch":[1,2]}`, 400, `{"error":"serve: bad request: 1 feature rows but 2 observed runtimes"}` + "\n"},
		{"/observe", `{"model":"grid-et","x":[1,2,3],"y":"1"}`, 400, `{"error":"serve: bad request: json: cannot unmarshal string into Go struct field observeRequest.y of type float64"}` + "\n"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if w.Code != c.status || w.Body.String() != c.answer {
			t.Errorf("%s %s: %d %q, want %d %q", c.path, c.body, w.Code, w.Body.String(), c.status, c.answer)
		}
	}
}

// TestBodyAnsweredAtClosingBrace: a request is answered once its object
// is complete, as encoding/json's streaming decoder answered it — the
// same answer whatever follows the closing brace, however long, and no
// wait for the end of a body the client keeps open.
func TestBodyAnsweredAtClosingBrace(t *testing.T) {
	_, _, reg := loadedRegressorModel(t, t.TempDir())
	h := New(reg).Handler()
	const obj = `{"model":"grid-et","x":[1,2,3]}`
	const answer = `{"model":"grid-et","version":1,"y":0.015060035887662936}` + "\n"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(obj+strings.Repeat("pad ", 1<<20))))
	if w.Code != http.StatusOK || w.Body.String() != answer {
		t.Fatalf("object + 4 MiB of trailing bytes: %d %q, want 200 %q", w.Code, w.Body.String(), answer)
	}

	cases := []struct {
		body   string
		status int
		answer string
	}{
		{obj, http.StatusOK, answer},
		// Outside the canonical subset: encoding/json reads on from the
		// open stream, and needs nothing past the brace either.
		{`{"Model":"grid-et","X":[1,2,3]}`, http.StatusOK, answer},
		{`{"model":"grid-et","x":[1],"bogus":1}`, http.StatusBadRequest, `{"error":"serve: bad request: json: unknown field \"bogus\""}` + "\n"},
	}
	for _, c := range cases {
		pr, pw := io.Pipe()
		go func() { _, _ = pw.Write([]byte(c.body)) }()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", pr))
			done <- w
		}()
		select {
		case w := <-done:
			if w.Code != c.status || w.Body.String() != c.answer {
				t.Errorf("%s, body left open: %d %q, want %d %q", c.body, w.Code, w.Body.String(), c.status, c.answer)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: no answer while the body stayed open", c.body)
		}
		pw.Close()
	}
}

// overflowForest decodes a two-tree forest over two features whose
// trees both answer 1 for x[0] <= 10 and 0.9·MaxFloat64 above. Each
// tree is finite; the forest's mean fold sums the two leaves before it
// divides, so every row past the split predicts +Inf. No fit yields it
// (the builder's sum of squares overflows first and the root stays one
// +Inf leaf), so it is written as a jsonv1 document.
func overflowForest(t *testing.T) ml.Regressor {
	t.Helper()
	type node struct {
		F int     `json:"f"`
		T float64 `json:"t"`
		V float64 `json:"v"`
		L int     `json:"l"`
		R int     `json:"r"`
	}
	stump := map[string]any{"n_features": 2, "nodes": []node{
		{F: 0, T: 10, L: 1, R: 2},
		{F: -1, V: 1, L: -1, R: -1},
		{F: -1, V: 0.9 * math.MaxFloat64, L: -1, R: -1},
	}}
	doc, err := json.Marshal(map[string]any{"kind": "forest", "data": map[string]any{
		"n_trees": 2, "n_features": 2, "trees": []any{stump, stump},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ml.LoadModel(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNonFinitePredictionIsBadRequest: a model whose prediction
// overflows must answer 400 naming the row, on both request shapes, and
// count the failure — not 200 with a body the encoder gave up on.
func TestNonFinitePredictionIsBadRequest(t *testing.T) {
	big := overflowForest(t)
	if p := big.Predict([]float64{1, 1}); p != 1 {
		t.Fatalf("finite row predicts %v, want 1", p)
	}
	if p := big.Predict([]float64{1e308, 1e308}); !math.IsInf(p, 1) {
		t.Fatalf("overflowing row predicts %v, want +Inf", p)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(big, registry.Meta{Name: "big"}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		name string
		req  map[string]any
		row  string
	}{
		{"single", map[string]any{"model": "big", "x": []float64{1e308, 1e308}}, "row 0"},
		{"batch", map[string]any{"model": "big", "batch": [][]float64{{1, 1}, {1e308, 1e308}}}, "row 1"},
	}
	for _, c := range cases {
		resp, body := postPredict(t, ts.URL, c.req)
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(e.Error, c.row) || !strings.Contains(e.Error, "not finite") {
			t.Errorf("%s: %d %q, want 400 naming %s as not finite", c.name, resp.StatusCode, body, c.row)
		}
	}
	if got := srv.Metrics.PredictErrors.Load(); got != 2 {
		t.Fatalf("PredictErrors = %d, want 2", got)
	}
	mt := srv.modelTele[modelKey{name: "big", version: 1}]
	if mt == nil || mt.err.Load() != 2 || mt.ok.Load() != 0 || mt.rows.Load() != 0 {
		t.Fatalf("per-model counters %+v, want 2 errors and nothing served", mt)
	}
}

// TestCancelledFollowerRowOutlivesHandler pins the one exception to
// releasing a request's pooled rows when its handler returns: a
// coalesced follower cancelled while queued leaves its row in the batch,
// so the row must stay untouched — through later requests that reuse
// the pools — until the drain has scored it.
func TestCancelledFollowerRowOutlivesHandler(t *testing.T) {
	_, srv, hy, X := newThroughputServer(t, CoalesceConfig{MaxBatch: 8}, AdmitConfig{})
	h := srv.Handler()
	m, err := srv.load(context.Background(), "grid-hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.co
	queueBehindBusy(c, m, nil) // a leader is scoring: the next single row queues

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{"model": "grid-hybrid", "x": X[0]})
	done := make(chan int)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)).WithContext(ctx))
		done <- w.Code
	}()
	var ch chan flushResult
	for deadline := time.Now().Add(10 * time.Second); ch == nil; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		if q := c.queues[m]; q != nil && len(q.waiters) == 1 {
			ch = q.waiters[0]
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the request never queued behind the busy model")
		}
	}
	cancel()
	if code := <-done; code != 499 {
		t.Fatalf("cancelled follower answered %d, want 499", code)
	}
	// Batches bypass the coalescer and decode into the same pools; had
	// the follower's rows gone back, these would overwrite its row.
	for i := 0; i < 8; i++ {
		resp := httptest.NewRecorder()
		b, _ := json.Marshal(map[string]any{"model": "grid-hybrid", "batch": X[1+i : 5+i]})
		h.ServeHTTP(resp, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(b)))
		if resp.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.Code, resp.Body)
		}
	}
	c.drain(m, c.queues[m])
	want, err := hy.Predict(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.err != nil || math.Float64bits(res.y) != math.Float64bits(want) {
		t.Fatalf("drain scored the abandoned row as (%v, %v), want %v", res.y, res.err, want)
	}
}
