// Command lam-loadgen is an HTTP load generator for lam-serve: it
// drives POST /predict with a configurable mix of single-row and batch
// requests and reports the latency distribution, achieved throughput
// and shed rate — the measurement half of the serving layer's capacity
// model (see the README's "Capacity planning & tuning" section).
//
// Usage:
//
//	lam-loadgen -url http://127.0.0.1:8080 -model grid-hybrid \
//	            (-x 240,240,160 | -data grid.csv) \
//	            [-mode closed|open] [-concurrency 32] [-qps 5000] \
//	            [-duration 10s] [-batch 64] [-batch-fraction 0.25] \
//	            [-targets url1,url2] [-id serve-coalesced] [-json]
//	            [-slowest 5]
//
// Fleet modes: -model accepts a comma-separated list — requests cycle
// through the names, which is how a gateway's per-model routing is
// exercised. -targets accepts a comma-separated list of base URLs and
// spreads load across them round-robin WITHOUT a gateway (direct fleet
// mode): comparing a -targets run against the same load through
// lam-gateway isolates the gateway's own overhead. Per-target achieved
// QPS is reported either way.
//
// Two load models:
//
//   - closed loop (default): -concurrency workers each issue the next
//     request as soon as the previous one completes, so offered load
//     adapts to the server — the classic saturation measurement.
//   - open loop: arrivals fire at a fixed -qps regardless of
//     completions (up to -concurrency outstanding; arrivals past that
//     are counted as local drops, not sent), so overload behaviour —
//     queueing, shedding, tail latency — is visible instead of being
//     absorbed by the client.
//
// Feature vectors come from -x (one comma-separated row, reused) or
// -data (a lam-datagen CSV whose rows are cycled round-robin). With
// -batch-fraction f and -batch N, a deterministic interleave sends
// fraction f of requests as N-row batches and the rest as singles.
//
// Every request carries a freshly minted X-Lam-Trace ID, and the
// report lists the IDs of the -slowest N slowest successful requests —
// paste one into the server's GET /trace/recent (or grep its
// -trace-slow log) to see exactly where that request spent its time.
//
// Responses with status 429 count as shed (the server's admission
// control working as designed), any other non-200 as an error. -json
// emits a machine-readable report whose benchmarks array follows the
// BENCH_PR<N>.json trajectory convention (see EXPERIMENTS.md);
// BENCH_PR5.json is a committed snapshot of two such runs.
//
// SIGINT/SIGTERM stop the run early and report what was measured.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lam/internal/dataset"
	"lam/internal/telemetry"
	"lam/internal/xmath"
)

// slowestN is the -slowest flag: how many of the slowest successful
// requests to report trace IDs for.
var slowestN = 5

// slowReq pairs one successful request's latency with the trace ID it
// was sent under.
type slowReq struct {
	lat time.Duration
	id  string
}

type result struct {
	latencies []time.Duration // successful requests only
	slow      []slowReq       // the slowestN slowest successful requests
	requests  uint64
	rows      uint64
	shed      uint64
	errors    uint64
}

// recordSlow keeps r.slow holding the slowestN largest latencies seen.
func (r *result) recordSlow(lat time.Duration, id string) {
	if slowestN <= 0 {
		return
	}
	if len(r.slow) < slowestN {
		r.slow = append(r.slow, slowReq{lat, id})
		return
	}
	min := 0
	for i := 1; i < len(r.slow); i++ {
		if r.slow[i].lat < r.slow[min].lat {
			min = i
		}
	}
	if lat > r.slow[min].lat {
		r.slow[min] = slowReq{lat, id}
	}
}

type jsonReport struct {
	Schema        string          `json:"schema"`
	URL           string          `json:"url"`
	Model         string          `json:"model"`
	Mode          string          `json:"mode"`
	Concurrency   int             `json:"concurrency"`
	TargetQPS     float64         `json:"target_qps"`
	DurationS     float64         `json:"duration_s"`
	Batch         int             `json:"batch"`
	BatchFraction float64         `json:"batch_fraction"`
	Benchmarks    []jsonBenchmark `json:"benchmarks"`
	// PerTarget breaks the run down by target URL in direct fleet mode
	// (-targets with more than one URL).
	PerTarget []jsonTarget `json:"per_target,omitempty"`
	// Slowest lists the slowest successful requests with the trace IDs
	// they were sent under (look them up at GET /trace/recent).
	Slowest []jsonSlow `json:"slowest,omitempty"`
}

type jsonSlow struct {
	Ns      int64  `json:"ns"`
	TraceID string `json:"trace_id"`
}

type jsonTarget struct {
	URL         string  `json:"url"`
	Requests    uint64  `json:"requests"`
	Rows        uint64  `json:"rows"`
	AchievedQPS float64 `json:"achieved_qps"`
	Shed        uint64  `json:"shed"`
	Errors      uint64  `json:"errors"`
}

type jsonBenchmark struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// NsPerOp is the mean latency of a successful request, for
	// comparability with the BENCH_PR<N>.json trajectory.
	NsPerOp       int64   `json:"ns_per_op"`
	Requests      uint64  `json:"requests"`
	Rows          uint64  `json:"rows"`
	AchievedQPS   float64 `json:"achieved_qps"`
	AchievedRowsS float64 `json:"achieved_rows_per_s"`
	P50Ns         int64   `json:"p50_ns"`
	P95Ns         int64   `json:"p95_ns"`
	P99Ns         int64   `json:"p99_ns"`
	MaxNs         int64   `json:"max_ns"`
	Shed          uint64  `json:"shed"`
	ShedRate      float64 `json:"shed_rate"`
	Errors        uint64  `json:"errors"`
	LocalDrops    uint64  `json:"local_drops"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "lam-serve or lam-gateway base URL")
	targets := flag.String("targets", "", "comma-separated base URLs for direct fleet mode (round-robin, no gateway); overrides -url")
	model := flag.String("model", "", "registry model name(s) to score, comma-separated (required; requests cycle through the list)")
	xFlag := flag.String("x", "", "comma-separated feature row to send (alternative to -data)")
	dataFile := flag.String("data", "", "lam-datagen CSV whose feature rows are cycled (alternative to -x)")
	mode := flag.String("mode", "closed", "load model: closed (workers back-to-back) or open (fixed arrival rate)")
	concurrency := flag.Int("concurrency", 32, "closed: worker count; open: max outstanding requests")
	qps := flag.Float64("qps", 1000, "open mode: target arrival rate, requests/s")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate load")
	batch := flag.Int("batch", 64, "rows per batch request (used for the -batch-fraction share)")
	batchFraction := flag.Float64("batch-fraction", 0, "fraction of requests sent as -batch-row batches; the rest are single rows")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout (bounds how long a stalled server can hang the run)")
	id := flag.String("id", "loadgen", "benchmark id for the -json report")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	slowest := flag.Int("slowest", 5, "report the trace IDs of this many slowest successful requests (0 disables)")
	flag.Parse()
	slowestN = *slowest

	if *model == "" {
		fatal(fmt.Errorf("-model is required"))
	}
	if *mode != "closed" && *mode != "open" {
		fatal(fmt.Errorf("-mode must be closed or open, got %q", *mode))
	}
	if *concurrency < 1 {
		fatal(fmt.Errorf("-concurrency must be >= 1"))
	}
	if *batchFraction < 0 || *batchFraction > 1 {
		fatal(fmt.Errorf("-batch-fraction must be in [0, 1]"))
	}
	if *batch < 1 {
		fatal(fmt.Errorf("-batch must be >= 1, got %d", *batch))
	}
	models := splitList(*model)
	baseURLs := []string{*url}
	if *targets != "" {
		baseURLs = splitList(*targets)
	}
	if len(baseURLs) == 0 {
		fatal(fmt.Errorf("-targets must name at least one URL"))
	}
	endpoints := make([]string, len(baseURLs))
	for i, u := range baseURLs {
		endpoints[i] = strings.TrimRight(u, "/") + "/predict"
	}
	if len(endpoints) > *concurrency {
		fatal(fmt.Errorf("-concurrency %d is below the %d targets: some targets would get no load", *concurrency, len(endpoints)))
	}
	rows, err := loadRows(*xFlag, *dataFile)
	if err != nil {
		fatal(err)
	}
	bodies := prepareBodies(models, rows, *batch, *batchFraction)

	client := &http.Client{
		// Without a timeout, one stalled server request would hang a
		// closed-loop worker (and the whole run) forever: ctx is only
		// checked between requests.
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	fmt.Fprintf(os.Stderr, "lam-loadgen: %s loop against %s, model %s, %d conns", *mode, strings.Join(endpoints, " "), *model, *concurrency)
	if *mode == "open" {
		fmt.Fprintf(os.Stderr, ", %.0f req/s target", *qps)
	}
	if *batchFraction > 0 {
		fmt.Fprintf(os.Stderr, ", %.0f%% %d-row batches", *batchFraction*100, *batch)
	}
	fmt.Fprintf(os.Stderr, ", %s\n", *duration)

	var localDrops uint64
	start := time.Now()
	var perTarget []result
	if *mode == "closed" {
		perTarget = runClosed(ctx, client, endpoints, bodies, *concurrency)
	} else {
		perTarget = runOpen(ctx, client, endpoints, bodies, *concurrency, *qps, &localDrops)
	}
	elapsed := time.Since(start)
	res := merge(perTarget)

	report(*jsonOut, *id, strings.Join(baseURLs, ","), *model, *mode, *concurrency, *qps, *batch, *batchFraction, elapsed, res, perTarget, baseURLs, localDrops)
	if res.errors > 0 {
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadRows resolves the feature-row source: a literal -x row or a CSV.
func loadRows(xFlag, dataFile string) ([][]float64, error) {
	switch {
	case xFlag != "" && dataFile != "":
		return nil, fmt.Errorf("-x and -data are mutually exclusive")
	case xFlag != "":
		parts := strings.Split(xFlag, ",")
		row := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("parsing -x element %d: %w", i, err)
			}
			row[i] = v
		}
		return [][]float64{row}, nil
	case dataFile != "":
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds, err := dataset.ReadCSV(f)
		if err != nil {
			return nil, err
		}
		if ds.Len() == 0 {
			return nil, fmt.Errorf("%s holds no rows", dataFile)
		}
		return ds.X, nil
	default:
		return nil, fmt.Errorf("one of -x or -data is required")
	}
}

// body is one pre-marshalled request.
type body struct {
	payload []byte
	rows    uint64
}

// prepareBodies pre-marshals a cycle of request bodies implementing
// the single/batch mix: out of every run of requests, a deterministic
// interleave makes fraction f of them batches, and consecutive bodies
// cycle through the -model list. Pre-marshalling keeps the generator's
// own JSON cost out of the measured loop.
func prepareBodies(models []string, rows [][]float64, batchSize int, fraction float64) []body {
	if len(models) == 0 {
		fatal(fmt.Errorf("-model named no models"))
	}
	// The cycle is long enough to realise the fraction exactly for
	// common values, to rotate through -data rows, and to cover every
	// model in the list.
	n := len(rows)
	if n < 100 {
		n = 100
	}
	if r := n % len(models); r != 0 {
		n += len(models) - r // every model appears equally often
	}
	bodies := make([]body, 0, n)
	next := 0 // next -data row to consume
	take := func() []float64 {
		r := rows[next%len(rows)]
		next++
		return r
	}
	batches := 0
	for i := 0; i < n; i++ {
		model := models[i%len(models)]
		// Emit a batch whenever the realised batch count falls behind
		// the target fraction — an error-diffusion interleave.
		if fraction > 0 && float64(batches) < fraction*float64(i+1) {
			X := make([][]float64, batchSize)
			for j := range X {
				X[j] = take()
			}
			payload, err := json.Marshal(map[string]any{"model": model, "batch": X})
			if err != nil {
				fatal(err)
			}
			bodies = append(bodies, body{payload: payload, rows: uint64(batchSize)})
			batches++
			continue
		}
		payload, err := json.Marshal(map[string]any{"model": model, "x": take()})
		if err != nil {
			fatal(err)
		}
		bodies = append(bodies, body{payload: payload, rows: 1})
	}
	return bodies
}

// shoot issues one request — under a freshly minted trace ID, so a
// slow request can be looked up in the server's trace ring — and
// records it into r.
func shoot(client *http.Client, endpoint string, b body, r *result) {
	id := telemetry.NewTraceID().String()
	req, err := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(b.payload))
	if err != nil {
		r.requests++
		r.errors++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, id)
	t0 := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(t0)
	r.requests++
	if err != nil {
		r.errors++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		r.rows += b.rows
		r.latencies = append(r.latencies, lat)
		r.recordSlow(lat, id)
	case resp.StatusCode == http.StatusTooManyRequests:
		r.shed++
	default:
		r.errors++
	}
}

// runClosed is the closed loop: workers chain requests back-to-back.
// Workers are assigned to targets round-robin, and the returned slice
// holds one merged result per target.
func runClosed(ctx context.Context, client *http.Client, endpoints []string, bodies []body, workers int) []result {
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			endpoint := endpoints[w%len(endpoints)]
			for i := w; ctx.Err() == nil; i += workers {
				shoot(client, endpoint, bodies[i%len(bodies)], r)
			}
		}(w)
	}
	wg.Wait()
	perTarget := make([]result, len(endpoints))
	for w := range results {
		mergeInto(&perTarget[w%len(endpoints)], results[w])
	}
	return perTarget
}

// runOpen is the open loop: a pacer fires arrivals at the target rate;
// each arrival runs in its own goroutine, bounded by maxOutstanding.
// Arrivals cycle through the targets round-robin; the returned slice
// holds one merged result per target.
func runOpen(ctx context.Context, client *http.Client, endpoints []string, bodies []body, maxOutstanding int, qps float64, localDrops *uint64) []result {
	if qps <= 0 {
		fatal(fmt.Errorf("-qps must be > 0 in open mode"))
	}
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	sem := make(chan struct{}, maxOutstanding)
	var mu sync.Mutex
	total := make([]result, len(endpoints))
	var wg sync.WaitGroup
	var dropped atomic.Uint64
	fire := func(i int) {
		select {
		case sem <- struct{}{}:
		default:
			// The client's outstanding budget is exhausted: an open-loop
			// arrival does not wait, it is dropped client-side.
			dropped.Add(1)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t := i % len(endpoints)
			var r result
			shoot(client, endpoints[t], bodies[i%len(bodies)], &r)
			mu.Lock()
			mergeInto(&total[t], r)
			mu.Unlock()
		}()
	}
	// A fixed arrival schedule with catch-up: when the pacer goroutine
	// wakes late (coarse timers, busy host), it fires every arrival
	// that is already due as a burst, so the offered rate tracks the
	// target instead of silently degrading to whatever one
	// sleep-per-arrival can sustain.
	start := time.Now()
	for i := 0; ; {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				wg.Wait()
				*localDrops = dropped.Load()
				return total
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			*localDrops = dropped.Load()
			return total
		}
		for !start.Add(time.Duration(i) * interval).After(time.Now()) {
			fire(i)
			i++
		}
	}
}

func merge(results []result) result {
	var total result
	for _, r := range results {
		mergeInto(&total, r)
	}
	return total
}

func mergeInto(total *result, r result) {
	total.latencies = append(total.latencies, r.latencies...)
	for _, sr := range r.slow {
		total.recordSlow(sr.lat, sr.id)
	}
	total.requests += r.requests
	total.rows += r.rows
	total.shed += r.shed
	total.errors += r.errors
}

func report(jsonOut bool, id, url, model, mode string, concurrency int, qps float64, batch int, fraction float64, elapsed time.Duration, r result, perTarget []result, targetURLs []string, localDrops uint64) {
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	var mean, max time.Duration
	if n := len(r.latencies); n > 0 {
		var sum time.Duration
		for _, l := range r.latencies {
			sum += l
		}
		mean = sum / time.Duration(n)
		max = r.latencies[n-1]
	}
	p50 := xmath.NearestRank(r.latencies, 0.50)
	p95 := xmath.NearestRank(r.latencies, 0.95)
	p99 := xmath.NearestRank(r.latencies, 0.99)
	achievedQPS := float64(len(r.latencies)) / elapsed.Seconds()
	achievedRows := float64(r.rows) / elapsed.Seconds()
	shedRate := 0.0
	if r.requests > 0 {
		shedRate = float64(r.shed) / float64(r.requests)
	}

	if jsonOut {
		title := fmt.Sprintf("%s loop, %d conns", mode, concurrency)
		if mode == "open" {
			title += fmt.Sprintf(", %.0f req/s target", qps)
		}
		if fraction > 0 {
			title += fmt.Sprintf(", %.0f%% %d-row batches", fraction*100, batch)
		} else {
			title += ", single rows"
		}
		rep := jsonReport{
			Schema: "lam-loadgen/v1", URL: url, Model: model, Mode: mode,
			Concurrency: concurrency, TargetQPS: qps, DurationS: elapsed.Seconds(),
			Batch: batch, BatchFraction: fraction,
			Benchmarks: []jsonBenchmark{{
				ID: id, Title: title, NsPerOp: mean.Nanoseconds(),
				Requests: r.requests, Rows: r.rows,
				AchievedQPS: achievedQPS, AchievedRowsS: achievedRows,
				P50Ns: p50.Nanoseconds(), P95Ns: p95.Nanoseconds(),
				P99Ns: p99.Nanoseconds(), MaxNs: max.Nanoseconds(),
				Shed: r.shed, ShedRate: shedRate, Errors: r.errors,
				LocalDrops: localDrops,
			}},
		}
		if len(perTarget) > 1 {
			for t, tr := range perTarget {
				rep.PerTarget = append(rep.PerTarget, jsonTarget{
					URL: targetURLs[t], Requests: tr.requests, Rows: tr.rows,
					AchievedQPS: float64(len(tr.latencies)) / elapsed.Seconds(),
					Shed:        tr.shed, Errors: tr.errors,
				})
			}
		}
		for _, sr := range slowestOf(r) {
			rep.Slowest = append(rep.Slowest, jsonSlow{Ns: sr.lat.Nanoseconds(), TraceID: sr.id})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("requests %d (rows %d, %.1fs)\n", r.requests, r.rows, elapsed.Seconds())
		fmt.Printf("achieved %.1f req/s (%.1f rows/s)\n", achievedQPS, achievedRows)
		fmt.Printf("latency mean %s  p50 %s  p95 %s  p99 %s  max %s\n", mean, p50, p95, p99, max)
		fmt.Printf("shed %d (%.2f%%)  errors %d  local drops %d\n", r.shed, shedRate*100, r.errors, localDrops)
		for _, sr := range slowestOf(r) {
			fmt.Printf("slowest %-12s  trace %s\n", sr.lat, sr.id)
		}
		if len(perTarget) > 1 {
			for t, tr := range perTarget {
				fmt.Printf("target %s  %.1f req/s  (%d requests, %d rows, shed %d, errors %d)\n",
					targetURLs[t], float64(len(tr.latencies))/elapsed.Seconds(),
					tr.requests, tr.rows, tr.shed, tr.errors)
			}
		}
	}
	if r.errors > 0 {
		fmt.Fprintf(os.Stderr, "lam-loadgen: %d requests failed\n", r.errors)
	}
}

// slowestOf returns the run's slowest requests, slowest first.
func slowestOf(r result) []slowReq {
	out := append([]slowReq(nil), r.slow...)
	sort.Slice(out, func(i, j int) bool { return out[i].lat > out[j].lat })
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lam-loadgen:", err)
	os.Exit(1)
}
