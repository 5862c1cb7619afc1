package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// rolloutStub is a fake replica for the rollout endpoints: an
// always-ready /readyz plus a scripted GET and POST
// /models/{name}/rollout. hits counts the rollout requests it sees.
func rolloutStub(t *testing.T, hits *atomic.Int64, handle http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	counted := func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		handle(w, r)
	}
	mux.HandleFunc("GET /models/{name}/rollout", counted)
	mux.HandleFunc("POST /models/{name}/rollout", counted)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// rolloutGateway fronts the given stubs with a gateway whose prober
// stays out of the way.
func rolloutGateway(t *testing.T, stubs ...*httptest.Server) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.URL
	}
	g, err := New(urls, Config{Health: slowHealth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	return g, gw
}

func doRollout(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// TestRolloutGetRelayed: a rollout inspection is routed to the model's
// ring primary and its answer relayed byte for byte.
func TestRolloutGetRelayed(t *testing.T) {
	var hits [2]atomic.Int64
	answer := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"model":"m","phase":"canary","stage":%d}`+"\n", i))
	}
	mk := func(i int) *httptest.Server {
		return rolloutStub(t, &hits[i], func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(answer(i))
		})
	}
	g, gw := rolloutGateway(t, mk(0), mk(1))

	for primary := 0; primary < 2; primary++ {
		model := modelWithPrimary(t, g, primary)
		before := hits[1-primary].Load()
		resp, got := doRollout(t, http.MethodGet, gw.URL+"/models/"+model+"/rollout", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, answer(primary)) {
			t.Fatalf("relayed %q, want the primary's %q", got, answer(primary))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		if n := hits[1-primary].Load() - before; n != 0 {
			t.Fatalf("the non-primary replica saw %d request(s)", n)
		}
	}
}

// TestRolloutActionConflictRelayed: an action the replica refuses with
// 409 (no active rollout) reaches the client as that 409, and is not
// retried elsewhere.
func TestRolloutActionConflictRelayed(t *testing.T) {
	var hits [2]atomic.Int64
	conflict := []byte(`{"error":"rollout: no active rollout"}` + "\n")
	var mu sync.Mutex
	var sent []string
	mk := func(i int) *httptest.Server {
		return rolloutStub(t, &hits[i], func(w http.ResponseWriter, r *http.Request) {
			b, _ := io.ReadAll(r.Body)
			mu.Lock()
			sent = append(sent, r.Header.Get("Content-Type")+" "+string(b))
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			_, _ = w.Write(conflict)
		})
	}
	g, gw := rolloutGateway(t, mk(0), mk(1))

	model := modelWithPrimary(t, g, 0)
	resp, got := doRollout(t, http.MethodPost, gw.URL+"/models/"+model+"/rollout", `{"action":"pause"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d (%s), want 409", resp.StatusCode, got)
	}
	if !bytes.Equal(got, conflict) {
		t.Fatalf("relayed %q, want %q", got, conflict)
	}
	if hits[0].Load() != 1 || hits[1].Load() != 0 {
		t.Fatalf("hits %d/%d, want the primary only", hits[0].Load(), hits[1].Load())
	}
	if want := `application/json {"action":"pause"}`; len(sent) != 1 || sent[0] != want {
		t.Fatalf("replica received %q, want [%q]", sent, want)
	}
}

// TestRolloutRetryPolicy: a primary that reads the request and then
// drops the connection leaves it unknown whether an action was
// applied. An action (POST) must then reach exactly one replica; an
// inspection (GET) is retried on the next ring candidate.
func TestRolloutRetryPolicy(t *testing.T) {
	var ambiguousHits, aliveHits atomic.Int64
	ambiguous := rolloutStub(t, &ambiguousHits, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		hijackClose(w)
	})
	status := []byte(`{"model":"m","phase":"idle"}` + "\n")
	alive := rolloutStub(t, &aliveHits, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(status)
	})
	g, gw := rolloutGateway(t, ambiguous, alive)
	model := modelWithPrimary(t, g, 0) // primary = the ambiguous one
	url := gw.URL + "/models/" + model + "/rollout"

	resp, got := doRollout(t, http.MethodPost, url, `{"action":"promote"}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("ambiguous action failure: status %d (%s), want 502", resp.StatusCode, got)
	}
	if a, b := ambiguousHits.Load(), aliveHits.Load(); a+b != 1 {
		t.Fatalf("the action reached %d replica request(s) (primary %d, survivor %d), want exactly 1", a+b, a, b)
	}

	resp, got = doRollout(t, http.MethodGet, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inspection after a dropped primary: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, status) {
		t.Fatalf("relayed %q, want %q", got, status)
	}
	if n := aliveHits.Load(); n != 1 {
		t.Fatalf("the survivor saw %d request(s), want 1", n)
	}
}

// TestRolloutPathEscaped: the model name in a rollout path is forwarded
// escaped, so a name holding "/.." reaches the replica as one path
// segment instead of a path the replica's mux cleans into another
// model's endpoint.
func TestRolloutPathEscaped(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	answer := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"model":%q,"method":%q}`+"\n", r.PathValue("name"), r.Method)
	}
	mux.HandleFunc("GET /models/{name}/rollout", answer)
	mux.HandleFunc("POST /models/{name}/rollout", answer)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			mu.Lock()
			seen = append(seen, r.Method+" "+r.RequestURI)
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(replica.Close)
	_, gw := rolloutGateway(t, replica)

	resp, got := doRollout(t, http.MethodPost, gw.URL+"/models/a%2F..%2Fb/rollout", `{"action":"pause"}`)
	mu.Lock()
	defer mu.Unlock()
	if want := "POST /models/a%2F..%2Fb/rollout"; len(seen) != 1 || seen[0] != want {
		t.Fatalf("replica saw %q, want exactly [%q]", seen, want)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if want := `{"model":"a/../b","method":"POST"}` + "\n"; string(got) != want {
		t.Fatalf("relayed %q, want %q", got, want)
	}
}
