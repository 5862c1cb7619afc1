package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON pins the names the binary emits to the
// ones BENCHMARK.json declares, and both to the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(decl.Workloads), len(workloads))
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n spec.go        %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n spec.go        %v", decl.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for w, c := range ladderChecks {
		for _, name := range append([]string{c.top}, c.parts...) {
			if !seen[name] {
				t.Errorf("ladder check of %s names undeclared metric %q", w, name)
			}
		}
		if !seen[w] {
			t.Errorf("ladder check for unknown workload %q", w)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at tiny
// sizes: every answer must be right, every end-to-end metric must be
// reported and positive, and the traced run may report only declared
// per-layer metrics.
func TestWorkloadsSmoke(t *testing.T) {
	e := &env{seed: 7, clients: 2, out: t.TempDir(), tiny: true}
	doc, ok := runSuite(workloads, e, 1, "both")
	if !ok {
		t.Error("a workload failed; see the FAILED line above")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for _, res := range doc.Workloads {
		if res.Failed != 0 || res.Attempted == 0 || res.Samples == 0 {
			t.Errorf("%s: attempted %d, failed %d, samples %d (%s)", res.Name, res.Attempted, res.Failed, res.Samples, res.Failure)
		}
		for _, s := range endToEnd {
			if v, has := res.EndToEnd[s.Name]; !has || v.Unit != s.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", res.Name, s.Name, v, s.Unit)
			}
		}
		if len(res.PerLayer) < 8 {
			t.Errorf("%s: only %d per-layer metrics measured", res.Name, len(res.PerLayer))
		}
		// The result line carries every declared metric of its kind,
		// measured or not, and nothing else.
		for trace, specs := range map[string][]metricSpec{"0": endToEnd, "1": perLayer} {
			var line bytes.Buffer
			if err := contractLine(&line, res, trace, ok); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool             `json:"correct"`
				Attempted int              `json:"attempted"`
				Failed    int              `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatalf("%s: result line %q: %v", res.Name, line.String(), err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(specs) {
				t.Errorf("%s -trace %s: correct %v, attempted %d, failed %d, %d metrics (want %d)",
					res.Name, trace, got.Correct, got.Attempted, got.Failed, len(got.Metrics), len(specs))
			}
			for _, s := range specs {
				if v, has := got.Metrics[s.Name]; !has || v.Unit != s.Unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %s", res.Name, trace, s.Name, v, s.Unit)
				}
			}
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", res.Name, err)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// A 10-unit request with children covering 3 and 4 has 3 of its own.
	self := selfTimes([]float64{10, 20}, []float64{3, 5}, []float64{4, 5})
	if !reflect.DeepEqual(self, []float64{3, 10}) {
		t.Errorf("selfTimes = %v, want [3 10]", self)
	}
	// Slice k holds 20 ops of k+1 ms, the last slice half of them in a
	// burst: the reported values are the median slice's.
	st := loopStats{elapsed: windowSlices * 1e9}
	for k := 0; k < windowSlices; k++ {
		for j := 0; j < 20; j++ {
			lat := float64(k + 1)
			if k == windowSlices-1 && j >= 10 {
				lat = 1000
			}
			st.samples = append(st.samples, sample{op: len(st.samples), latMs: lat, atS: float64(k) + float64(j)/20})
		}
	}
	mid := float64(windowSlices+1) / 2
	if p50, p95, rate := st.summary(&fixture{pass: 1}); p50 != mid || p95 != mid || rate != 20 {
		t.Errorf("sliced summary = %v, %v, %v, want %v, %v, 20", p50, p95, rate, mid, mid)
	}
	// Two passes over three unlike ops: positions reduce to 1.5, 10, 100 ms.
	st = loopStats{elapsed: 1e9}
	for i, lat := range []float64{1, 10, 100, 2, 10, 100} {
		st.samples = append(st.samples, sample{op: i, latMs: lat})
	}
	if p50, p95, rate := st.summary(&fixture{pass: 3, byPosition: true}); p50 != 10 || p95 != 100 || rate != 3/0.1115 {
		t.Errorf("by-position summary = %v, %v, %v, want 10, 100, %v", p50, p95, rate, 3/0.1115)
	}
	l := newLadder(newTracer())
	l.dur["top"], l.dur["below"] = []float64{10, 12, 50}, []float64{4, 5, 6}
	if got := l.self("top", "below"); got != 7 {
		t.Errorf("ladder self = %v, want the median difference 7", got)
	}
}
