package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lam/internal/registry"
	"lam/internal/serve"
	"lam/internal/telemetry"
)

// newTracedReplica builds a warmed replica with admission control and
// coalescing on, so a proxied single-row request produces the full
// span set (admission, coalesce, predict).
func newTracedReplica(t *testing.T, dir string, names []string) (*serve.Server, *httptest.Server) {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(reg)
	s.Coalesce = serve.CoalesceConfig{MaxBatch: 2}
	s.Admit = serve.AdmitConfig{MaxInflight: 8, Queue: 8}
	s.WarmNames = names
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	return s, ts
}

// TestGatewayTraceJoin is the tracing acceptance check: one request
// through the gateway yields a single trace ID minted at the gateway,
// echoed to the client, and adopted by the replica — with the
// gateway's routing spans and the replica's serving spans recorded
// against the same ID, at least five spans in total.
func TestGatewayTraceJoin(t *testing.T) {
	names := []string{"m0"}
	dir, X := newFleetRegistry(t, names)
	s1, r1 := newTracedReplica(t, dir, names)
	s2, r2 := newTracedReplica(t, dir, names)

	g, err := New([]string{r1.URL, r2.URL}, Config{Health: fastHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	body, _ := json.Marshal(map[string]any{"model": "m0", "x": X[0]})
	resp, out := postJSON(t, gw.URL+"/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict through gateway: %d (%s)", resp.StatusCode, out)
	}
	id := resp.Header.Get(telemetry.TraceHeader)
	if _, ok := telemetry.ParseTraceID(id); !ok {
		t.Fatalf("gateway response carries no valid trace ID, got %q", id)
	}

	spanNames := func(recs []telemetry.Record) []string {
		var names []string
		for _, rec := range recs {
			if rec.TraceID != id {
				continue
			}
			for _, sp := range rec.Spans {
				names = append(names, sp.Name)
			}
		}
		return names
	}
	gwSpans := spanNames(g.Tracer.Recent())
	for _, want := range []string{"route", "proxy"} {
		if !contains(gwSpans, want) {
			t.Errorf("gateway trace %s is missing span %q (has %v)", id, want, gwSpans)
		}
	}
	// Exactly one replica served the request; its ring must hold the
	// gateway-minted ID with the serving spans.
	replicaSpans := spanNames(s1.Tracer.Recent())
	if len(replicaSpans) == 0 {
		replicaSpans = spanNames(s2.Tracer.Recent())
	}
	for _, want := range []string{"admission", "coalesce", "predict"} {
		if !contains(replicaSpans, want) {
			t.Errorf("replica trace %s is missing span %q (has %v)", id, want, replicaSpans)
		}
	}
	if total := len(gwSpans) + len(replicaSpans); total < 5 {
		t.Errorf("trace %s spans %d in total (gateway %v + replica %v), want >= 5",
			id, total, gwSpans, replicaSpans)
	}

	// The gateway's /trace/recent endpoint serves the same record.
	r, err := http.Get(gw.URL + "/trace/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var doc struct {
		Traces []telemetry.Record `json:"traces"`
	}
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range doc.Traces {
		if rec.TraceID == id {
			found = true
			if rec.Model != "m0" {
				t.Errorf("trace %s records model %q, want m0", id, rec.Model)
			}
		}
	}
	if !found {
		t.Errorf("/trace/recent does not list trace %s", id)
	}
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// TestGatewayMetricsExposition scrapes the gateway's /metrics under
// concurrent proxied load, strict-parses every scrape, and checks the
// backend-labeled families.
func TestGatewayMetricsExposition(t *testing.T) {
	names := []string{"m0", "m1"}
	dir, X := newFleetRegistry(t, names)
	_, _, r1 := newReplica(t, dir, names, serve.CoalesceConfig{})
	_, _, r2 := newReplica(t, dir, names, serve.CoalesceConfig{})

	g, err := New([]string{r1.URL, r2.URL}, Config{Health: fastHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				body, _ := json.Marshal(map[string]any{"model": names[i%len(names)], "x": X[0]})
				resp, out := postJSON(t, gw.URL+"/predict", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict: %d (%s)", resp.StatusCode, out)
					return
				}
			}
		}(w)
	}
	// Scrape concurrently with the load: every intermediate document
	// must already be a valid exposition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := scrape(t, gw.URL); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	exp, err := scrape(t, gw.URL)
	if err != nil {
		t.Fatal(err)
	}
	fam := exp.Family("lam_gateway_predict_requests_total")
	if fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value < 64 {
		t.Fatalf("lam_gateway_predict_requests_total missing or low: %+v", fam)
	}
	breq := exp.Family("lam_gateway_backend_requests_total")
	if breq == nil {
		t.Fatal("no lam_gateway_backend_requests_total family")
	}
	urls := map[string]bool{}
	for _, s := range breq.Samples {
		if v, ok := s.Label("backend"); ok {
			urls[v] = true
		}
	}
	if !urls[r1.URL] || !urls[r2.URL] {
		t.Fatalf("backend label values %v do not cover both replicas (%s, %s)", urls, r1.URL, r2.URL)
	}
	up := exp.Family("lam_gateway_backend_up")
	if up == nil || len(up.Samples) != 2 {
		t.Fatalf("lam_gateway_backend_up samples: %+v", up)
	}
	for _, s := range up.Samples {
		if s.Value != 1 {
			u, _ := s.Label("backend")
			t.Errorf("backend %s reported down during healthy-fleet test", u)
		}
	}
	if h := exp.Family("lam_gateway_route_latency_seconds"); h == nil || h.Type != "histogram" {
		t.Fatalf("route latency histogram missing: %+v", h)
	}
}

// scrape fetches and strict-parses one Prometheus exposition.
func scrape(t *testing.T, base string) (*telemetry.Exposition, error) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(string(raw))
}
