// Command benchmark is the repository's one benchmark: it boots the
// serving stack in this process on loopback with the daemons' default
// wiring, drives five seeded workloads from closed-loop clients, checks
// every answer, and prints every metric BENCHMARK.json declares by name
// with its unit. See README.md in this directory.
//
// Usage:
//
//	go run ./benchmark [-workload all|<name>] [-seed 42] [-seconds 10]
//	                   [-trace both|0|1] [-json file] [-out dir]
//	go run ./benchmark -agree [-workload ...] [-seed ...] [-seconds ...]
//	go run ./benchmark -write-golden benchmark/golden/figures_seed42.json
//
// With one workload and -trace 0 or 1 the last line of standard output
// is the result object the benchmark contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metrics maps a declared metric name to its measured value.
type metrics map[string]float64

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's share of the -json document.
type workloadResult struct {
	Name      string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"`
	Failure   string           `json:"first_failure,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`
}

// document is what -json writes: the host shape next to the numbers.
type document struct {
	Host      host             `json:"host"`
	Clients   int              `json:"clients"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func hostShape() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, CPUModel: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report pairs every measured metric with its declared unit.
func report(specs []metricSpec, m metrics) map[string]value {
	out := make(map[string]value, len(m))
	for _, s := range specs {
		if v, ok := m[s.Name]; ok {
			out[s.Name] = value{v, s.Unit}
		}
	}
	return out
}

// secs converts a flag's seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmSetup sets a workload up and runs its counted warm-up: everything
// setup_s covers. It returns the fixture, the number of closed-loop
// clients and the index of the first timed op.
func warmSetup(w workload, e *env) (*fixture, int, int, error) {
	clients := 1
	if w.concurrent {
		clients = e.clients
	}
	warmup := e.count(w.warmup)
	fx, err := w.setup(e)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	if warm := closedLoop(fx, clients, 0, warmup, 0, nil); warm.failed > 0 {
		fx.close()
		return nil, 0, 0, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return fx, clients, warmup, nil
}

// runTimed is the untraced run: the end-to-end metrics come from it.
// The workload is set up several times and the median set-up time is
// reported; the last set-up serves the timed window.
func runTimed(w workload, e *env, seconds float64, res *workloadResult) (metrics, error) {
	setups := 3
	if e.tiny {
		setups = 1
	}
	var (
		fx              *fixture
		clients, warmup int
		setupS          []float64
	)
	for k := 0; k < setups; k++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		var err error
		if fx, clients, warmup, err = warmSetup(w, e); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer fx.close()
	runtime.GC()
	st := closedLoop(fx, clients, warmup, 0, secs(seconds), nil)
	res.Attempted += st.attempted
	res.Failed += st.failed
	res.Samples = len(st.samples)
	if st.firstErr != nil {
		res.Failure = st.firstErr.Error()
	}
	p50, p95, perSecond := st.summary(fx)
	fmt.Printf("  samples %d of %d attempted, failed_share %g, p99 %.4g ms, %.4g rows/s, %d GCs\n",
		len(st.samples), st.attempted, float64(st.failed)/float64(max(st.attempted, 1)),
		percentile(sorted(st.latencies()), 0.99), float64(st.rows)/st.elapsed.Seconds(), st.gcs)
	return metrics{
		"setup_s":         median(setupS),
		"latency_p50_ms":  p50,
		"latency_p95_ms":  p95,
		"throughput_rps":  perSecond,
		"alloc_mb_per_op": float64(st.allocBytes) / 1e6 / float64(max(st.attempted, 1)),
	}, nil
}

// runTraced is the traced run: the per-layer metrics come from it. A
// serving workload first runs its closed loop without and then with
// span recording (counters, tail and tracing overhead), then every
// workload replays its seeded inputs sequentially as a ladder.
func runTraced(w workload, e *env, seconds float64, res *workloadResult) (metrics, error) {
	fx, clients, warmup, err := warmSetup(w, e)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	m := metrics{}
	tr := newTracer()
	note := func(st loopStats) {
		res.Attempted += st.attempted
		res.Failed += st.failed
		if res.Failure == "" && st.firstErr != nil {
			res.Failure = st.firstErr.Error()
		}
	}
	if fx.serving {
		runtime.GC()
		plain := closedLoop(fx, clients, warmup, 0, secs(seconds/2), nil)
		note(plain)
		lat := sorted(plain.latencies())
		m["client.latency_p99_ms"] = percentile(lat, 0.99)
		m["client.rows_per_s"] = float64(plain.rows) / plain.elapsed.Seconds()
		m["runtime.gc_count"] = float64(plain.gcs)
		fx.counters(m)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["runtime.heap_inuse_mb"] = float64(ms.HeapInuse) / 1e6
		spans := closedLoop(fx, clients, warmup, 0, secs(seconds/4), tr)
		note(spans)
		if p50 := percentile(lat, 0.5); p50 > 0 {
			m["trace.overhead_pct"] = (percentile(sorted(spans.latencies()), 0.5)/p50 - 1) * 100
		}
	}
	l := newLadder(tr)
	before := len(tr.spans)
	fx.ladder(l, m)
	res.Attempted += len(tr.spans) - before
	if l.err != nil {
		res.Failed++
		if res.Failure == "" {
			res.Failure = l.err.Error()
		}
	}
	if res.TraceFile, err = tr.write(e.out, w.name, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ladderChecks names, per workload, a top rung and the rungs that
// should add up to it; the run prints how close they come.
var ladderChecks = map[string]struct {
	top   string
	parts []string
}{
	"replica_single": {"client.http_single_us", []string{"net.self_single_us", "serve.self_single_us", "registry.predict_row_us"}},
	"replica_batch":  {"client.http_batch512_us", []string{"net.self_batch512_us", "serve.self_batch512_us", "registry.predict_batch512_us"}},
	"fleet_mixed":    {"gateway.handler_single_us", []string{"gateway.self_single_us", "net.self_single_us", "serve.self_single_us", "registry.predict_row_us"}},
	"cold_load":      {"registry.load_ms", []string{"registry.load_self_ms", "artifact.read_ms", "artifact.decode_ms"}},
}

func printMetrics(title string, specs []metricSpec, m metrics) {
	fmt.Printf("  %s\n", title)
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			continue
		}
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %g%%)", s.Better, s.Bound*100)
		}
		fmt.Printf("    %-34s %14.6g %-7s%s\n", s.Name, v, s.Unit, bound)
	}
}

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       string
	jsonPath    string
	out         string
	agree       bool
	writeGolden string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each workload's timed window")
	fs.StringVar(&o.trace, "trace", "both", "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), both")
	fs.StringVar(&o.jsonPath, "json", "", "also write every result as one JSON document to this file")
	fs.StringVar(&o.out, "out", "benchmark/out", "directory for scratch registries and trace files")
	fs.BoolVar(&o.agree, "agree", false, "run the untraced suite as two alternating sets of 3 invocations and compare their medians against the bounds")
	fs.StringVar(&o.writeGolden, "write-golden", "", "regenerate the figure goldens into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.writeGolden != "" {
		if err := writeGolden(o.writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	var selected []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || o.seconds <= 0 || (o.trace != "both" && o.trace != "0" && o.trace != "1") {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload all|%s, -seconds > 0, -trace both|0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if o.agree {
		return runAgree(o)
	}
	e := &env{seed: o.seed, clients: min(runtime.NumCPU(), 4), out: o.out}
	doc, ok := runSuite(selected, e, o.seconds, o.trace)
	if o.jsonPath != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(selected) == 1 && o.trace != "both" {
		if err := contractLine(os.Stdout, doc.Workloads[0], o.trace, ok); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runSuite runs the selected workloads and prints their tables. ok is
// false when any operation failed or answered wrong.
func runSuite(selected []workload, e *env, seconds float64, trace string) (document, bool) {
	doc := document{Host: hostShape(), Clients: e.clients, Seed: e.seed, Seconds: seconds}
	fmt.Printf("host: %d CPUs (%s), GOMAXPROCS %d, %s %s; C = %d closed-loop clients, seed %d\n",
		doc.Host.NumCPU, doc.Host.CPUModel, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.OSArch, e.clients, e.seed)
	ok := true
	for _, w := range selected {
		res := workloadResult{Name: w.name}
		fmt.Printf("== %s ==\n", w.name)
		fail := func(err error) {
			res.Failed++
			res.Attempted = max(res.Attempted, 1)
			if res.Failure == "" {
				res.Failure = err.Error()
			}
		}
		if trace != "1" {
			m, err := runTimed(w, e, seconds, &res)
			if err != nil {
				fail(err)
			} else {
				res.EndToEnd = report(endToEnd, m)
				printMetrics(fmt.Sprintf("end-to-end (untraced, %g s timed)", seconds), endToEnd, m)
			}
		}
		if trace != "0" {
			m, err := runTraced(w, e, seconds, &res)
			if err != nil {
				fail(err)
			} else {
				res.PerLayer = report(perLayer, m)
				printMetrics("per-layer (traced run; spans in "+res.TraceFile+")", perLayer, m)
				if c, has := ladderChecks[w.name]; has {
					var sum float64
					for _, p := range c.parts {
						sum += m[p]
					}
					fmt.Printf("    ladder: %s = %.6g, its rungs %s sum to %.6g (%+.2f%%)\n",
						c.top, m[c.top], strings.Join(c.parts, " + "), sum, (sum/m[c.top]-1)*100)
				}
			}
		}
		if res.Failed > 0 {
			ok = false
			fmt.Printf("  FAILED %d of %d; first: %s\n", res.Failed, res.Attempted, res.Failure)
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	return doc, ok
}

// contractLine prints the one-object result line: every end-to-end
// metric for an untraced run, every per-layer metric for a traced run,
// with 0 for a rung the workload never passes through.
func contractLine(w io.Writer, res workloadResult, trace string, ok bool) error {
	specs, measured := endToEnd, res.EndToEnd
	if trace == "1" {
		specs, measured = perLayer, res.PerLayer
	}
	vals := make(map[string]value, len(specs))
	for _, s := range specs {
		vals[s.Name] = value{measured[s.Name].Value, s.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, max(res.Attempted, 1), res.Failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
