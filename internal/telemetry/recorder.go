package telemetry

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Record is one finished trace as stored in the Recorder's ring and
// served by GET /trace/recent.
type Record struct {
	TraceID      string    `json:"trace_id"`
	Name         string    `json:"name"`
	Model        string    `json:"model,omitempty"`
	Version      int       `json:"version,omitempty"`
	Start        time.Time `json:"start"`
	DurNs        int64     `json:"dur_ns"`
	Spans        []Span    `json:"spans"`
	SpansDropped int       `json:"spans_dropped,omitempty"`
}

// Recorder owns a process's finished traces: a bounded ring (newest
// wins) plus the slow-trace log hook. All methods are nil-safe so a
// daemon that opts out of tracing passes nil and the instrumented
// paths degrade to no-ops.
type Recorder struct {
	// Slow, when positive, logs the full span list of any trace whose
	// total duration meets or exceeds it (the -trace-slow flag).
	Slow time.Duration
	// Logger receives slow-trace reports; nil falls back to
	// slog.Default().
	Logger *slog.Logger

	mu   sync.Mutex
	ring []slot
	next int
	full bool
}

// slot is one finished trace in the Recorder's ring. Finish overwrites
// a slot in place, reusing its span storage, so recording a trace
// allocates nothing once the ring has turned over; Recent copies slots
// out as Records.
type slot struct {
	id      TraceID
	name    string
	model   string
	version int
	start   time.Time
	durNs   int64
	spans   []Span
	dropped int
}

// NewRecorder returns a recorder keeping the last size finished
// traces (minimum 1).
func NewRecorder(size int) *Recorder {
	if size < 1 {
		size = 1
	}
	return &Recorder{ring: make([]slot, size)}
}

// Start mints a fresh trace. name labels the operation ("predict",
// "observe", "retrain"). Nil-safe: a nil recorder returns a nil trace.
func (r *Recorder) Start(name string) *Trace {
	if r == nil {
		return nil
	}
	return newTrace(NewTraceID(), "", name)
}

// StartFromHeader adopts the TraceHeader ID from an incoming request,
// minting a fresh one when the header is absent or malformed — the
// edge mints, interior hops join. An adopted ID in lowercase, the form
// every hop sends, is kept as the header's own string.
func (r *Recorder) StartFromHeader(h http.Header, name string) *Trace {
	if r == nil {
		return nil
	}
	s := h.Get(TraceHeader)
	id, ok := ParseTraceID(s)
	if !ok {
		return newTrace(NewTraceID(), "", name)
	}
	if strings.ContainsAny(s, "ABCDEF") {
		s = ""
	}
	return newTrace(id, s, name)
}

// Finish completes the trace: stores it in the ring and, if the trace
// ran slower than Slow, logs its span tree.
func (r *Recorder) Finish(t *Trace) {
	if r == nil || t == nil {
		return
	}
	dur := time.Since(t.start)
	r.mu.Lock()
	s := &r.ring[r.next]
	t.mu.Lock()
	s.id, s.name, s.model, s.version = t.id, t.name, t.model, t.version
	s.start, s.durNs, s.dropped = t.start, dur.Nanoseconds(), t.dropped
	s.spans = append(s.spans[:0], t.spans...)
	model, version, spans := t.model, t.version, t.spans
	t.mu.Unlock()
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()

	if r.Slow > 0 && dur >= r.Slow {
		lg := r.Logger
		if lg == nil {
			lg = slog.Default()
		}
		lg.Warn("slow trace",
			"trace_id", t.idText,
			"op", t.name,
			"model", model,
			"version", version,
			"dur", dur,
			"spans", clone(spans),
		)
	}
}

// clone copies spans, nil when there are none.
func clone(spans []Span) []Span { return append([]Span(nil), spans...) }

// Recent returns copies of the stored traces, newest-first: later
// Finish calls, which overwrite the ring in place, do not change them.
func (r *Recorder) Recent() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	out := make([]Record, 0, n)
	// Walk backwards from the most recently written slot.
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.ring)
		}
		s := &r.ring[idx]
		out = append(out, Record{
			TraceID:      s.id.String(),
			Name:         s.name,
			Model:        s.model,
			Version:      s.version,
			Start:        s.start,
			DurNs:        s.durNs,
			Spans:        clone(s.spans),
			SpansDropped: s.dropped,
		})
	}
	return out
}

// Handler serves GET /trace/recent: {"traces":[...]}, newest first.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		recs := r.Recent()
		if recs == nil {
			recs = []Record{}
		}
		json.NewEncoder(w).Encode(map[string]any{"traces": recs})
	})
}
