package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lam_test_total", "help", L("model", "m0"))
	b := r.Counter("lam_test_total", "help", L("model", "m0"))
	if a != b {
		t.Fatal("same name+labels must resolve to one handle")
	}
	c := r.Counter("lam_test_total", "help", L("model", "m1"))
	if a == c {
		t.Fatal("different labels must resolve to distinct handles")
	}
	// Label order must not matter.
	d := r.Counter("lam_multi_total", "help", L("a", "1"), L("b", "2"))
	e := r.Counter("lam_multi_total", "help", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatal("label registration order must not create distinct series")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("lam_conflict", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("lam_conflict", "help")
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("SetMax must keep the high water mark, got %d", got)
	}
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("SetMax must raise, got %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lam_lat_seconds", "help")
	h.Observe(100 * time.Nanosecond)  // bucket 0 (<=250ns)
	h.Observe(500 * time.Microsecond) // <=1ms
	h.Observe(2 * time.Second)        // +Inf
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	cum := h.Cumulative()
	if cum[len(cum)-1] != 3 {
		t.Fatalf("+Inf cumulative = %d, want 3", cum[len(cum)-1])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts decreased at %d", i)
		}
	}
	if h.SumNs() != uint64(100+500_000+2_000_000_000) {
		t.Fatalf("SumNs = %d", h.SumNs())
	}
}

func TestExpositionRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("lam_b_total", "b count").Add(7)
	r.Counter("lam_a_total", "a count", L("model", "g"), L("outcome", "ok")).Add(2)
	r.Counter("lam_a_total", "a count", L("model", "g"), L("outcome", "error")).Inc()
	r.Gauge("lam_depth", "queue depth").Store(4)
	h := r.Histogram("lam_lat_seconds", "latency", L("model", "g"))
	h.Observe(3 * time.Millisecond)
	r.CollectFunc("lam_col", "collected", TypeGauge, func(emit func([]Label, float64)) {
		emit([]Label{L("v", "2")}, 42)
		emit([]Label{L("v", "1")}, 41)
	})

	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	exp, err := ParseExposition(doc)
	if err != nil {
		t.Fatalf("own exposition must parse: %v\n%s", err, doc)
	}
	// Families sorted by name.
	var names []string
	for _, f := range exp.Families {
		names = append(names, f.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("families not sorted: %v", names)
		}
	}
	fa := exp.Family("lam_a_total")
	if fa == nil || fa.Type != TypeCounter || len(fa.Samples) != 2 {
		t.Fatalf("lam_a_total family wrong: %+v", fa)
	}
	if v, _ := fa.Samples[0].Label("outcome"); v != "error" {
		t.Fatalf("series not sorted by signature: %+v", fa.Samples)
	}
	col := exp.Family("lam_col")
	if col == nil || len(col.Samples) != 2 || col.Samples[0].Value != 41 {
		t.Fatalf("collector family wrong: %+v", col)
	}
	hist := exp.Family("lam_lat_seconds")
	if hist == nil || hist.Type != TypeHistogram {
		t.Fatal("histogram family missing")
	}
	// NumLatencyBuckets bucket samples + _sum + _count.
	if len(hist.Samples) != NumLatencyBuckets+2 {
		t.Fatalf("histogram sample count = %d, want %d", len(hist.Samples), NumLatencyBuckets+2)
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("lam_esc_total", "help", L("model", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(sb.String())
	if err != nil {
		t.Fatalf("escaped exposition must parse: %v\n%s", err, sb.String())
	}
	got, _ := exp.Family("lam_esc_total").Samples[0].Label("model")
	if got != "a\"b\\c\nd" {
		t.Fatalf("label value did not round-trip: %q", got)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lam_x_total", "help").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	// The legacy ?format=json dispatch is gone: every request gets the
	// Prometheus text exposition.
	for _, url := range []string{srv.URL, srv.URL + "?format=json"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != ExpositionContentType {
			t.Fatalf("GET %s: Content-Type %q, want %q", url, ct, ExpositionContentType)
		}
		if !strings.Contains(sb.String(), "# TYPE lam_x_total counter") {
			t.Fatalf("GET %s: missing exposition in:\n%s", url, sb.String())
		}
	}
}

// TestConcurrentScrape hammers registration, updates and exposition
// concurrently; run under -race this is the registry's thread-safety
// proof, and every interleaved scrape must still parse strictly.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			models := []string{"m0", "m1", "m2"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := models[i%len(models)]
				r.Counter("lam_cc_total", "help", L("model", m)).Inc()
				r.Histogram("lam_cc_seconds", "help", L("model", m)).Observe(time.Duration(i) * time.Microsecond)
				r.Gauge("lam_cc_depth", "help").SetMax(int64(i % 100))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteExposition(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(sb.String()); err != nil {
			t.Fatalf("scrape %d failed strict parse: %v\n%s", i, err, sb.String())
		}
	}
	close(stop)
	wg.Wait()
}
