package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// escapeLabelValue applies the Prometheus text-format label-value
// escapes: backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a # HELP line payload (backslash and newline).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatSeconds renders a nanosecond bound as seconds the way
// Prometheus clients conventionally do: shortest representation that
// round-trips.
func formatSeconds(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="x",b="y"} (empty string for no labels), with
// extra appended last — used for the histogram le label, which by
// convention trails the user labels.
func writeLabels(w *bufio.Writer, labels []Label, extra ...Label) {
	if len(labels) == 0 && len(extra) == 0 {
		return
	}
	w.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(l.Name)
		w.WriteString(`="`)
		w.WriteString(escapeLabelValue(l.Value))
		w.WriteString(`"`)
	}
	for _, l := range extra {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(l.Name)
		w.WriteString(`="`)
		w.WriteString(escapeLabelValue(l.Value))
		w.WriteString(`"`)
	}
	w.WriteByte('}')
}

// WriteExposition writes every family in Prometheus text format:
// families sorted by name, series within a family sorted by label
// signature, histogram buckets cumulative with a terminal +Inf.
func (r *Registry) WriteExposition(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Snapshot each family's series list under the lock; the slots
	// themselves are atomics and are read lock-free below.
	type famSnap struct {
		f      *family
		series []*series
	}
	snaps := make([]famSnap, len(fams))
	for i, f := range fams {
		ordered := make([]*series, len(f.ordered))
		copy(ordered, f.ordered)
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].sig < ordered[b].sig })
		snaps[i] = famSnap{f: f, series: ordered}
	}
	r.mu.Unlock()
	sort.Slice(snaps, func(a, b int) bool { return snaps[a].f.name < snaps[b].f.name })

	bw := bufio.NewWriter(w)
	for _, sn := range snaps {
		f := sn.f
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			// Collector family: gather, then sort for deterministic and
			// duplicate-free output.
			type sample struct {
				sig    string
				labels []Label
				value  float64
			}
			var samples []sample
			f.collect(func(labels []Label, value float64) {
				ls := normalizeLabels(f.name, labels)
				samples = append(samples, sample{sig: signature(ls), labels: ls, value: value})
			})
			sort.Slice(samples, func(a, b int) bool { return samples[a].sig < samples[b].sig })
			for _, s := range samples {
				bw.WriteString(f.name)
				writeLabels(bw, s.labels)
				bw.WriteByte(' ')
				bw.WriteString(formatValue(s.value))
				bw.WriteByte('\n')
			}
			continue
		}
		for _, s := range sn.series {
			switch {
			case s.c != nil:
				bw.WriteString(f.name)
				writeLabels(bw, s.labels)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(s.c.Load(), 10))
				bw.WriteByte('\n')
			case s.g != nil:
				bw.WriteString(f.name)
				writeLabels(bw, s.labels)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(s.g.Load(), 10))
				bw.WriteByte('\n')
			case s.h != nil:
				cum := s.h.Cumulative()
				for i, bound := range s.h.boundsNs {
					bw.WriteString(f.name)
					bw.WriteString("_bucket")
					writeLabels(bw, s.labels, L("le", formatSeconds(bound)))
					bw.WriteByte(' ')
					bw.WriteString(strconv.FormatUint(cum[i], 10))
					bw.WriteByte('\n')
				}
				bw.WriteString(f.name)
				bw.WriteString("_bucket")
				writeLabels(bw, s.labels, L("le", "+Inf"))
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(cum[len(cum)-1], 10))
				bw.WriteByte('\n')
				bw.WriteString(f.name)
				bw.WriteString("_sum")
				writeLabels(bw, s.labels)
				bw.WriteByte(' ')
				bw.WriteString(formatValue(float64(s.h.SumNs()) / 1e9))
				bw.WriteByte('\n')
				bw.WriteString(f.name)
				bw.WriteString("_count")
				writeLabels(bw, s.labels)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(cum[len(cum)-1], 10))
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

// ExpositionContentType is the Content-Type of the Prometheus text
// format, version 0.0.4.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves GET /metrics as the Prometheus text exposition. (The
// legacy ?format=json flat document had its one-release compatibility
// window and is gone; scrape the text format.)
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		if err := r.WriteExposition(w); err != nil {
			// Headers are gone; nothing useful left to do but note it.
			return
		}
	})
}
