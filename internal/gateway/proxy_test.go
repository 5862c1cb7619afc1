package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// slowHealth keeps the active prober out of a test's way: policy
// assertions must see the request path's behavior, not a probe racing
// it to an ejection or re-admission.
var slowHealth = HealthConfig{
	Interval:     time.Hour,
	Timeout:      time.Second,
	EjectAfter:   3,
	ReadmitAfter: 2,
}

// stubBackend is a minimal fake replica: always-ready /readyz plus a
// scripted /predict + /observe behavior.
func stubBackend(t *testing.T, handle http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /predict", handle)
	mux.HandleFunc("POST /observe", handle)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// modelWithPrimary finds a model name the ring routes to the given
// backend index first — the deterministic way to exercise one specific
// spill path despite the httptest servers' random ports.
func modelWithPrimary(t *testing.T, g *Gateway, idx int) string {
	t.Helper()
	var buf [maxBackends]int
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("probe-model-%d", i)
		if g.ring.candidates(name, buf[:])[0] == idx {
			return name
		}
	}
	t.Fatal("no model name hashed to the wanted primary in 1000 tries")
	return ""
}

// TestSpillOver429 drives a request whose primary always sheds: the
// gateway must answer from the next ring candidate, record the spill,
// and honor the shedding replica's Retry-After as a routing cooldown.
func TestSpillOver429(t *testing.T) {
	shedder := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	})
	answer := []byte(`{"model":"x","version":1,"y":42}` + "\n")
	server := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	})

	g, err := New([]string{shedder.URL, server.URL}, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	model := modelWithPrimary(t, g, 0) // primary = the shedder
	body := []byte(fmt.Sprintf(`{"model":%q,"x":[1,2,3]}`, model))

	resp, got := postJSON(t, gw.URL+"/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, answer) {
		t.Fatalf("spilled answer diverged: %q", got)
	}
	if got := g.Metrics.Spilled429.Load(); got != 1 {
		t.Fatalf("spilled_429 = %d, want 1", got)
	}
	if got := g.backends[0].metrics.Shed429.Load(); got != 1 {
		t.Fatalf("shedder shed_429 = %d, want 1", got)
	}

	// The Retry-After cooldown deprioritizes the shedder: an immediate
	// second request goes straight to the healthy candidate.
	before := g.backends[0].metrics.Requests.Load()
	resp, got = postJSON(t, gw.URL+"/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request status %d: %s", resp.StatusCode, got)
	}
	if after := g.backends[0].metrics.Requests.Load(); after != before {
		t.Fatalf("cooldown ignored: shedder received %d more request(s)", after-before)
	}
}

// TestAllShed429Forwarded: when every candidate sheds, the client gets
// the 429 — with Retry-After intact — not a gateway error.
func TestAllShed429Forwarded(t *testing.T) {
	mk := func() *httptest.Server {
		return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
		})
	}
	s1, s2 := mk(), mk()
	g, err := New([]string{s1.URL, s2.URL}, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	resp, _ := postJSON(t, gw.URL+"/predict", []byte(`{"model":"m","x":[1]}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want 2", ra)
	}
}

// TestObserveRetryPolicy: /observe retries when the request provably
// never reached a backend (dial error) but never after bytes were
// written to a live connection.
func TestObserveRetryPolicy(t *testing.T) {
	// Case 1: dead primary (connection refused — a dial error) → the
	// observation is retried and succeeds on the survivor.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the port now refuses connections
	var observed int
	alive := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		observed++
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ingested":1}`)
	})
	g, err := New([]string{deadURL, alive.URL}, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	model := modelWithPrimary(t, g, 0) // primary = the dead one
	body := []byte(fmt.Sprintf(`{"model":%q,"x":[1,2,3],"y":0.5}`, model))
	resp, got := postJSON(t, gw.URL+"/observe", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe via dead primary: status %d: %s", resp.StatusCode, got)
	}
	if observed != 1 {
		t.Fatalf("observation ingested %d times, want exactly 1", observed)
	}
	if got := g.Metrics.SpilledFailure.Load(); got != 1 {
		t.Fatalf("spilled_failure = %d, want 1", got)
	}

	// Case 2: the primary accepts the connection, reads the request,
	// then kills the connection — an ambiguous failure. /observe must
	// NOT be retried (the backend may have ingested it); /predict may.
	var aliveHits int
	ambiguous := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		hijackClose(w)
	})
	alive2 := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		aliveHits++
		_, _ = io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"ok":true}`)
	})
	g2, err := New([]string{ambiguous.URL, alive2.URL}, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	gw2 := httptest.NewServer(g2.Handler())
	defer gw2.Close()

	model2 := modelWithPrimary(t, g2, 0) // primary = the ambiguous one
	body2 := []byte(fmt.Sprintf(`{"model":%q,"x":[1,2,3],"y":0.5}`, model2))

	resp, got = postJSON(t, gw2.URL+"/observe", body2)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("ambiguous observe failure: status %d (%s), want 502", resp.StatusCode, got)
	}
	if aliveHits != 0 {
		t.Fatalf("ambiguous observe was retried onto the survivor %d time(s)", aliveHits)
	}

	// The same ambiguous failure on idempotent /predict IS retried.
	resp, got = postJSON(t, gw2.URL+"/predict", body2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after ambiguous failure: status %d: %s", resp.StatusCode, got)
	}
	if aliveHits != 1 {
		t.Fatalf("predict retry hit the survivor %d time(s), want 1", aliveHits)
	}
}

// TestNoLiveBackend: with every backend ejected the gateway answers
// 503 + Retry-After instead of hanging or panicking.
func TestNoLiveBackend(t *testing.T) {
	s := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {})
	g, err := New([]string{s.URL}, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.backends[0].health.ejected.Store(true)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	resp, _ := postJSON(t, gw.URL+"/predict", []byte(`{"model":"m","x":[1]}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if g.Metrics.NoBackend.Load() != 1 {
		t.Fatalf("no_backend = %d, want 1", g.Metrics.NoBackend.Load())
	}
}

// TestRetryAfterCapped: a replica's Retry-After cools it down for at
// most cooldownCap, however large the header, and a malformed or
// negative one means one second.
func TestRetryAfterCapped(t *testing.T) {
	for header, want := range map[string]time.Duration{
		"30": cooldownCap, "10000000000": cooldownCap, "-1": time.Second, "abc": time.Second,
	} {
		resp := &http.Response{Header: http.Header{"Retry-After": {header}}}
		if got := retryAfter(resp); got != want {
			t.Errorf("Retry-After %q: cooldown %v, want %v", header, got, want)
		}
	}
}

// TestRotate checks the in-place rotation at every offset of every
// length up to 9 against a rotation built by appending.
func TestRotate(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for off := 0; off < max(n, 1); off++ {
			live := make([]int, n)
			for i := range live {
				live[i] = 10 + i
			}
			want := append(append([]int(nil), live[off:]...), live[:off]...)
			rotate(live, off)
			if fmt.Sprint(live) != fmt.Sprint(want) {
				t.Fatalf("rotate(n=%d, off=%d) = %v, want %v", n, off, live, want)
			}
		}
	}
	live := []int{1, 2, 3, 4}
	if got := testing.AllocsPerRun(10, func() { rotate(live, 3) }); got != 0 {
		t.Fatalf("rotate allocates %.0f objects, want 0", got)
	}
}

// TestRedirectRelayed: a replica's 3xx is the answer the client gets,
// Location and all — the gateway relays, it does not follow (a client
// that followed a 301 would resend the POST as a GET).
func TestRedirectRelayed(t *testing.T) {
	var gets atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/elsewhere", http.StatusMovedPermanently)
	})
	mux.HandleFunc("/elsewhere", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		fmt.Fprint(w, `{"followed":true}`)
	})
	replica := httptest.NewServer(mux)
	defer replica.Close()
	g, err := New([]string{replica.URL}, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	cli := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := cli.Post(gw.URL+"/predict", "application/json", bytes.NewReader([]byte(`{"model":"m","x":[1]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMovedPermanently || resp.Header.Get("Location") != "/elsewhere" {
		t.Fatalf("got %d Location %q, want the replica's 301 to /elsewhere", resp.StatusCode, resp.Header.Get("Location"))
	}
	if n := gets.Load(); n != 0 {
		t.Fatalf("the gateway followed the redirect: /elsewhere was requested %d time(s)", n)
	}
}
