package telemetry

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that propagates a trace ID across
// hops: the gateway mints an ID (or adopts the client's), forwards it
// to the replica, and both record against the same ID.
const TraceHeader = "X-Lam-Trace"

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// String renders the ID as lowercase hex.
func (id TraceID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the ID is all-zero (no trace).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// ParseTraceID parses a 32-hex-digit ID; ok is false on malformed or
// all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// NewTraceID mints a random 128-bit ID. math/rand/v2's global
// generator is seeded from the OS and safe for concurrent use; trace
// IDs need uniqueness, not unpredictability.
func NewTraceID() TraceID {
	var id TraceID
	a, b := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
		id[8+i] = byte(b >> (8 * i))
	}
	return id
}

// maxSpans bounds one trace's span list; a span ended past the bound
// increments Dropped instead of growing the slice, so a pathological
// request cannot balloon the ring's memory.
const maxSpans = 64

// inlineSpans is how many spans a trace holds without a heap slice of
// its own: enough for every request path (admission, coalesce,
// predict; route, proxy and a retry), so recording a request's spans
// never regrows a slice.
const inlineSpans = 4

// Span is one completed unit of work within a trace. Times are offsets
// from the trace's start so span trees from different processes can be
// read side by side without clock agreement beyond the trace boundary.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // offset from trace start
	DurNs   int64  `json:"dur_ns"`
	Detail  string `json:"detail,omitempty"`
}

// Trace is one request's (or background job's) span collection. All
// methods are safe on a nil receiver — instrumented code never checks
// whether tracing is enabled.
type Trace struct {
	id     TraceID
	idText string // id as TraceHeader carries it, formatted once
	name   string
	start  time.Time

	mu      sync.Mutex
	model   string
	version int
	spans   []Span // inline[:0] until a trace outgrows it
	dropped int
	inline  [inlineSpans]Span
}

// newTrace returns a trace of the given ID started now. text is the ID
// as TraceHeader carries it, or "" to format it here.
func newTrace(id TraceID, text, name string) *Trace {
	if text == "" {
		text = id.String()
	}
	t := &Trace{id: id, idText: text, name: name, start: time.Now()}
	t.spans = t.inline[:0]
	return t
}

// ID returns the trace's identifier (zero on nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// IDString returns the ID as 32 lowercase hex digits, the form
// TraceHeader carries: formatted once per trace, or adopted as is from
// the header it arrived in ("" on nil).
func (t *Trace) IDString() string {
	if t == nil {
		return ""
	}
	return t.idText
}

// SetModel records the model name and version the trace resolved to;
// call once known (it may not be at mint time — the gateway peeks the
// model, a replica resolves the version after load).
func (t *Trace) SetModel(model string, version int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.model = model
	t.version = version
	t.mu.Unlock()
}

// ActiveSpan is an in-progress span, held by value: opening one
// allocates nothing. End or EndDetail completes it and appends it to
// the trace. The zero ActiveSpan (from a nil trace) no-ops.
type ActiveSpan struct {
	t     *Trace
	name  string
	start time.Time
}

// StartSpan opens a span. Nil-safe: on a nil trace the returned span's
// methods no-op.
func (t *Trace) StartSpan(name string) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{t: t, name: name, start: time.Now()}
}

// End completes the span and records it on the trace.
func (s ActiveSpan) End() { s.EndDetail("") }

// EndDetail completes the span with a free-form annotation (backend
// URL, model@version, batch size) and records it on the trace.
func (s ActiveSpan) EndDetail(detail string) {
	t := s.t
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{
			Name:    s.name,
			StartNs: s.start.Sub(t.start).Nanoseconds(),
			DurNs:   now.Sub(s.start).Nanoseconds(),
			Detail:  detail,
		})
	}
	t.mu.Unlock()
}

type traceCtxKey struct{}

// WithTrace attaches a trace to a context for the request path to
// instrument against.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the context's trace, or nil (whose methods all
// no-op) when none is attached.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// StartSpan opens a span on the context's trace; the common one-line
// instrumentation form:
//
//	defer telemetry.StartSpan(ctx, "artifact_load").End()
func StartSpan(ctx context.Context, name string) ActiveSpan {
	return FromContext(ctx).StartSpan(name)
}
