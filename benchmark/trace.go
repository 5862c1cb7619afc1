package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span one rung up the ladder (0 for the top rung).
// Calls > 1 marks a span that timed a loop of identical calls because a
// single call is shorter than the clock can resolve.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record times fn as one span and returns the span's id and its
// duration per call in nanoseconds.
func (t *tracer) record(req, parent int, name string, calls int, fn func()) (int, float64) {
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	if calls > 1 {
		s.Calls = calls
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id, float64(end.Sub(start).Nanoseconds()) / float64(max(calls, 1))
}

// write stores the spans, one JSON object a line, followed by one line
// holding the per-layer metrics derived from them and from the
// daemons' counters.
func (t *tracer) write(dir, workload string, layers metrics) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err == nil {
			err = enc.Encode(&t.spans[i])
		}
	}
	if err == nil {
		err = enc.Encode(map[string]any{"workload": workload, "per_layer": layers})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// ladder replays requests rung by rung: the same input goes through the
// real loopback round trip and then through each layer below it, and
// every rung becomes a span whose parent is the rung above. Durations
// are kept per span name in request order, so a rung's self time is its
// duration minus the rungs directly below it, request by request.
type ladder struct {
	tr  *tracer
	dur map[string][]float64 // nanoseconds per call, by span name
	err error                // first failed rung; later rungs are skipped
}

func newLadder(tr *tracer) *ladder { return &ladder{tr: tr, dur: make(map[string][]float64)} }

// rung times fn under name and returns the span id for its children.
// fn reports a wrong or failed answer as an error, checked outside the
// timed region by whatever it returns.
func (l *ladder) rung(req, parent int, name string, calls int, fn func() func() error) int {
	if l.err != nil {
		return 0
	}
	var check func() error
	id, ns := l.tr.record(req, parent, name, calls, func() { check = fn() })
	l.dur[name] = append(l.dur[name], ns)
	if check != nil {
		if err := check(); err != nil {
			l.err = fmt.Errorf("request %d, %s: %w", req, name, err)
		}
	}
	return id
}

// med is the median duration of a rung in nanoseconds.
func (l *ladder) med(name string) float64 { return median(l.dur[name]) }

// self is the median over requests of a rung minus its child rungs.
func (l *ladder) self(name string, children ...string) float64 {
	cs := make([][]float64, len(children))
	for i, c := range children {
		cs[i] = l.dur[c]
	}
	return median(selfTimes(l.dur[name], cs...))
}
