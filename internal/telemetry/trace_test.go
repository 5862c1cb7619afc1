package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("minted ID must not be zero")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("ID string length = %d, want 32", len(s))
	}
	got, ok := ParseTraceID(s)
	if !ok || got != id {
		t.Fatalf("round trip failed: %s -> %s", id, got)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32), strings.Repeat("a", 31)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID(%q) must fail", bad)
		}
	}
}

func TestRecorderAdoptsHeader(t *testing.T) {
	r := NewRecorder(8)
	h := http.Header{}
	want := NewTraceID()
	h.Set(TraceHeader, want.String())
	tr := r.StartFromHeader(h, "predict")
	if tr.ID() != want {
		t.Fatalf("header ID not adopted: got %s want %s", tr.ID(), want)
	}
	// Absent or malformed header mints.
	tr2 := r.StartFromHeader(http.Header{}, "predict")
	if tr2.ID().IsZero() || tr2.ID() == want {
		t.Fatal("missing header must mint a fresh ID")
	}
}

func TestSpansAndRing(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 3; i++ {
		tr := r.Start("predict")
		tr.SetModel("grid", 3)
		sp := tr.StartSpan("admission")
		sp.End()
		tr.StartSpan("predict").EndDetail("batch=4")
		r.Finish(tr)
	}
	recs := r.Recent()
	if len(recs) != 2 {
		t.Fatalf("ring must cap at 2, got %d", len(recs))
	}
	rec := recs[0]
	if rec.Model != "grid" || rec.Version != 3 {
		t.Fatalf("model/version lost: %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Name != "admission" || rec.Spans[1].Detail != "batch=4" {
		t.Fatalf("spans wrong: %+v", rec.Spans)
	}
	if rec.Spans[1].StartNs < rec.Spans[0].StartNs {
		t.Fatal("span start offsets must be ordered by wall time")
	}
}

func TestSpanCap(t *testing.T) {
	r := NewRecorder(1)
	tr := r.Start("predict")
	for i := 0; i < maxSpans+10; i++ {
		tr.StartSpan("s").End()
	}
	r.Finish(tr)
	rec := r.Recent()[0]
	if len(rec.Spans) != maxSpans || rec.SpansDropped != 10 {
		t.Fatalf("span cap: got %d spans, %d dropped", len(rec.Spans), rec.SpansDropped)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	tr := r.Start("predict") // nil
	tr.SetModel("m", 1)
	tr.StartSpan("x").EndDetail("d")
	r.Finish(tr)
	if r.Recent() != nil {
		t.Fatal("nil recorder must report no traces")
	}
	tr2 := r.StartFromHeader(http.Header{}, "p")
	if tr2 != nil {
		t.Fatal("nil recorder must mint nil traces")
	}
	// Context plumbing with no trace attached.
	StartSpan(context.Background(), "x").End()
}

func TestContextPlumbing(t *testing.T) {
	r := NewRecorder(1)
	tr := r.Start("predict")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext must return the attached trace")
	}
	StartSpan(ctx, "inner").End()
	r.Finish(tr)
	if got := r.Recent()[0].Spans; len(got) != 1 || got[0].Name != "inner" {
		t.Fatalf("context span not recorded: %+v", got)
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(4)
	r.Slow = time.Nanosecond
	r.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	tr := r.Start("predict")
	tr.StartSpan("predict").End()
	time.Sleep(time.Millisecond)
	r.Finish(tr)
	out := buf.String()
	if !strings.Contains(out, "slow trace") || !strings.Contains(out, tr.ID().String()) {
		t.Fatalf("slow trace not logged with its ID:\n%s", out)
	}
	// Threshold respected: a fast trace with a huge threshold stays quiet.
	buf.Reset()
	r.Slow = time.Hour
	tr2 := r.Start("predict")
	r.Finish(tr2)
	if buf.Len() != 0 {
		t.Fatalf("fast trace must not log: %s", buf.String())
	}
}

func TestRecentHandler(t *testing.T) {
	r := NewRecorder(4)
	tr := r.Start("observe")
	tr.StartSpan("observe_ingest").End()
	r.Finish(tr)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Traces []Record `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].Name != "observe" || len(doc.Traces[0].Spans) != 1 {
		t.Fatalf("handler payload wrong: %+v", doc)
	}
	if _, ok := ParseTraceID(doc.Traces[0].TraceID); !ok {
		t.Fatalf("trace_id not a valid ID: %q", doc.Traces[0].TraceID)
	}
}

// TestRecorderFinishAllocations: once the ring has turned over, a
// request's trace is one object — its spans live inline, an adopted
// header ID is kept as it came, and Finish reuses its slot's storage.
func TestRecorderFinishAllocations(t *testing.T) {
	r := NewRecorder(4)
	h := http.Header{}
	h.Set(TraceHeader, NewTraceID().String())
	request := func() *Trace {
		tr := r.StartFromHeader(h, "predict")
		for _, name := range [...]string{"admission", "coalesce", "predict"} {
			tr.StartSpan(name).End()
		}
		return tr
	}
	for i := 0; i < 2*len(r.ring); i++ {
		r.Finish(request())
	}
	if got := testing.AllocsPerRun(100, func() { r.Finish(request()) }); got != 1 {
		t.Fatalf("a traced request allocates %.0f objects, want 1 (the trace)", got)
	}
	tr := request()
	if got := testing.AllocsPerRun(100, func() { r.Finish(tr) }); got != 0 {
		t.Fatalf("Finish allocates %.0f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { r.Start("retrain") }); got != 2 {
		t.Fatalf("minting a trace allocates %.0f objects, want 2 (the trace and its ID text)", got)
	}
}

// TestRecentIsACopy: Finish overwrites ring slots in place, so what
// Recent returned must not share their storage — neither the record
// nor its JSON may change when later traces land in the same slots.
func TestRecentIsACopy(t *testing.T) {
	r := NewRecorder(1)
	tr := r.Start("predict")
	tr.SetModel("grid", 2)
	tr.StartSpan("admission").End()
	tr.StartSpan("predict").EndDetail("rows=4")
	r.Finish(tr)
	recs := r.Recent()
	before, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		later := r.Start("observe")
		later.SetModel("other", 9)
		later.StartSpan("observe_ingest").EndDetail("overwritten")
		later.StartSpan("rollout").End()
		r.Finish(later)
	}
	after, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a later Finish changed an earlier Recent result:\nbefore %s\nafter  %s", before, after)
	}
	if rec := recs[0]; rec.TraceID != tr.ID().String() || rec.Spans[1].Detail != "rows=4" {
		t.Fatalf("record lost its trace: %+v", rec)
	}
	if r.Recent()[0].Name != "observe" {
		t.Fatal("the ring did not take the later trace")
	}
}
