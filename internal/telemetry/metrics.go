package telemetry

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension. The repository's conventional label
// names are "model", "version", "backend" and "outcome".
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric slot. It embeds the
// atomic directly: Add/Load on a registered handle are single atomic
// operations with no indirection beyond the pointer itself.
type Counter struct{ atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a settable signed metric slot.
type Gauge struct{ atomic.Int64 }

// SetMax raises the gauge to v if v is greater — the high-water-mark
// idiom used for queue and in-flight peaks.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LatencyBucketBoundsNs is the one shared histogram bucket ladder
// (upper bounds, inclusive, nanoseconds; the final implicit bucket is
// +Inf): 0.25µs through 1s in 4x steps. It is the union of the ladders
// serve's predict histogram and gateway's routing histogram used
// before the telemetry plane, so the two daemons' histograms became
// directly comparable without losing resolution at either end —
// sub-microsecond routing decisions and worst-case cold batch
// predictions land in distinct buckets of the same ladder.
var LatencyBucketBoundsNs = [...]uint64{
	250,           // 0.25µs
	1_000,         // 1µs
	4_000,         // 4µs
	16_000,        // 16µs
	64_000,        // 64µs
	256_000,       // 256µs
	1_000_000,     // 1ms
	4_000_000,     // 4ms
	16_000_000,    // 16ms
	64_000_000,    // 64ms
	256_000_000,   // 256ms
	1_000_000_000, // 1s
}

// NumLatencyBuckets includes the +Inf overflow bucket.
const NumLatencyBuckets = len(LatencyBucketBoundsNs) + 1

// Histogram is a fixed-bucket duration histogram. Stored counts are
// per-interval so Observe is one bucket scan (≤ len(bounds) compares)
// plus two atomic adds; exposition accumulates them into cumulative
// Prometheus form.
type Histogram struct {
	boundsNs []uint64
	buckets  []atomic.Uint64 // len(boundsNs)+1; last is +Inf
	sumNs    atomic.Uint64
}

func newHistogram(boundsNs []uint64) *Histogram {
	return &Histogram{boundsNs: boundsNs, buckets: make([]atomic.Uint64, len(boundsNs)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d)
	h.sumNs.Add(ns)
	for i, b := range h.boundsNs {
		if ns <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(h.buckets)-1].Add(1)
}

// Cumulative returns the cumulative bucket counts (last entry is the
// +Inf bucket, equal to Count).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.buckets))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// SumNs returns the accumulated observed time in nanoseconds.
func (h *Histogram) SumNs() uint64 { return h.sumNs.Load() }

// Metric family types, as emitted in the exposition's # TYPE line.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// series is one registered (labels → slot) binding within a family.
type series struct {
	labels []Label // sorted by name
	sig    string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name with its type, help and series set.
type family struct {
	name, help, typ string
	series          map[string]*series
	ordered         []*series // insertion order; sorted at exposition
	// collect, when set, makes this a collector family: samples are
	// produced by the callback at scrape time instead of from
	// registered slots.
	collect func(emit func(labels []Label, value float64))
}

// Registry is a set of metric families with a Prometheus text
// exposition. Registration (Counter/Gauge/Histogram) is
// get-or-create on (name, label set) and safe for concurrent use; the
// returned handles are the storage, so the hot path never touches the
// registry again.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// signature renders sorted labels into a canonical, unambiguous key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte(',')
	}
	return b.String()
}

func normalizeLabels(name string, labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i, l := range out {
		if !labelNameRE.MatchString(l.Name) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l.Name))
		}
		if i > 0 && out[i-1].Name == l.Name {
			panic(fmt.Sprintf("telemetry: metric %s: duplicate label %q", name, l.Name))
		}
	}
	return out
}

// getOrCreate resolves the series for (name, labels), creating family
// and series as needed. The slot kind is fixed at creation so series
// fields are immutable afterwards and exposition can read them
// lock-free. Conflicting re-registration (same name, different type)
// panics: it is a programming error, caught at init or first load,
// never on the hot path.
func (r *Registry) getOrCreate(name, help, typ string, labels []Label) *series {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	labels = normalizeLabels(name, labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, typ, fam.typ))
	}
	if fam.collect != nil {
		panic(fmt.Sprintf("telemetry: metric %s is a collector family; cannot register slots on it", name))
	}
	s := fam.series[sig]
	if s == nil {
		s = &series{labels: labels, sig: sig}
		switch {
		case typ == TypeCounter:
			s.c = &Counter{}
		case typ == TypeGauge:
			s.g = &Gauge{}
		case typ == TypeHistogram:
			s.h = newHistogram(LatencyBucketBoundsNs[:])
		}
		fam.series[sig] = s
		fam.ordered = append(fam.ordered, s)
	}
	return s
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, TypeCounter, labels).c
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, TypeGauge, labels).g
}

// Histogram returns the duration histogram registered under name. All
// histograms share the one LatencyBucketBoundsNs ladder — defined
// once, here, so serve and gateway can never drift apart again.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, TypeHistogram, labels).h
}

// CollectFunc registers a collector family: at each scrape, fn is
// invoked and every emit(labels, value) call becomes one sample. Use
// it for values that already live elsewhere (online-plane windows,
// health state) instead of mirroring them into slots. typ must be
// TypeCounter or TypeGauge.
func (r *Registry) CollectFunc(name, help, typ string, fn func(emit func(labels []Label, value float64))) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("telemetry: collector %s: unsupported type %s", name, typ))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %s registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, collect: fn}
}
