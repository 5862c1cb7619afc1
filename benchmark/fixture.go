package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/serve"
)

const (
	dataWorkload = "stencil-blocking" // the paper's fig6 dataset
	machineName  = "bluewaters"
	batchRows    = 512
	observeRows  = 32
)

var (
	ctx   = context.Background()
	quiet = slog.New(slog.DiscardHandler)
)

// env carries what every workload derives its inputs and sizes from.
type env struct {
	seed    int64
	clients int    // C = min(nproc, 4) closed-loop clients
	out     string // scratch registries and trace files live here
	// tiny shrinks model sizes and request counts so the smoke test
	// covers every code path in about a second per workload.
	tiny bool
}

func (e *env) trees() int {
	if e.tiny {
		return 10
	}
	return 100
}

// count scales a request count down for the smoke test.
func (e *env) count(n int) int {
	if e.tiny {
		return min(n, max(n/50, 4))
	}
	return n
}

func (e *env) rng(stream int64) *rand.Rand { return rand.New(rand.NewSource(e.seed*1000 + stream)) }

// scratch makes a fresh directory for one set-up's registry.
func (e *env) scratch(name string) (string, error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.out, name+"-")
}

func (e *env) dataset() (*dataset.Dataset, error) {
	return experiments.DatasetByName(dataWorkload, machine.BlueWatersXE6(), uint64(e.seed))
}

func (e *env) pipeline(seed int64) *ml.Pipeline {
	return &ml.Pipeline{Model: ml.NewExtraTrees(e.trees(), seed)}
}

// hybridConfig is the paper's hybrid: stacking over the extra-trees
// pipeline, no aggregation.
func (e *env) hybridConfig(seed int64) hybrid.Config {
	return hybrid.Config{Seed: seed, NewML: func() ml.Regressor { return e.pipeline(seed) }}
}

// trainHybrid fits hybrid-k, the paper's model: a stacking hybrid over
// an extra-trees pipeline trained on a 4% uniform sample.
func (e *env) trainHybrid(ds *dataset.Dataset, k int) (*hybrid.Model, registry.Meta, *dataset.Dataset, error) {
	seed := e.seed + int64(k)
	train, rest, err := ds.SampleFraction(0.04, e.rng(int64(k)))
	if err != nil {
		return nil, registry.Meta{}, nil, err
	}
	am, err := experiments.AMByDataset(dataWorkload, machine.BlueWatersXE6())
	if err != nil {
		return nil, registry.Meta{}, nil, err
	}
	m, err := hybrid.TrainCtx(ctx, train, am, e.hybridConfig(seed))
	if err != nil {
		return nil, registry.Meta{}, nil, err
	}
	mape, err := m.MAPE(rest)
	if err != nil {
		return nil, registry.Meta{}, nil, err
	}
	meta := registry.Meta{
		Name: fmt.Sprintf("hybrid-%d", k), Workload: dataWorkload, Machine: machineName,
		TrainSize: train.Len(), TestMAPE: mape,
	}
	return m, meta, train, nil
}

// fitLarge fits et-large: an extra-trees pipeline on 80% of the data.
func (e *env) fitLarge(ds *dataset.Dataset) (*ml.Pipeline, *dataset.Dataset, error) {
	train, _, err := ds.SampleFraction(0.8, e.rng(100))
	if err != nil {
		return nil, nil, err
	}
	p := e.pipeline(e.seed)
	if err := p.Fit(train.X, train.Y); err != nil {
		return nil, nil, err
	}
	return p, train, nil
}

func largeMeta(train *dataset.Dataset) registry.Meta {
	return registry.Meta{Name: "et-large", Workload: dataWorkload, Machine: machineName, TrainSize: train.Len()}
}

// loopback is one HTTP server on 127.0.0.1 with lam-serve's timeouts.
type loopback struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: srv, done: make(chan error, 1)}
	go func() { l.done <- srv.Serve(ln) }()
	return l, nil
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// replica is one serve.Server wired the way cmd/lam-serve wires it by
// default: coalesce 32 rows / 1 ms, no admission bound, and with
// -online the adaptation plane at its default window and detector.
type replica struct {
	srv   *serve.Server
	h     http.Handler // Handler() builds the coalescer, so it is called once
	plane *online.Plane
	lb    *loopback
}

func onlinePlane(reg *registry.Registry) *online.Plane {
	return online.New(reg, online.Config{
		WindowSize:      512,
		Detector:        online.DetectorConfig{DegradeFactor: 1.5, MinSamples: 64},
		HoldoutFraction: 0.25,
		Seed:            1,
		DisableRetrain:  true,
	})
}

func startReplica(dir string, withOnline bool) (*replica, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	s := serve.New(reg)
	s.Log = quiet
	s.Tracer.Logger = quiet
	s.Coalesce = serve.CoalesceConfig{MaxBatch: 32, MaxDelay: time.Millisecond}
	s.Admit = serve.AdmitConfig{MaxInflight: 0, Queue: 64}
	r := &replica{srv: s}
	if withOnline {
		r.plane = onlinePlane(reg)
		s.AttachOnline(r.plane)
	}
	r.h = s.Handler()
	if r.lb, err = listen(r.h); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replica) close() {
	if r.lb != nil {
		r.lb.close()
	}
	if r.plane != nil {
		r.plane.Close()
	}
}

// wireRequest and wireResponse mirror the daemons' JSON bodies.
type wireRequest struct {
	Model  string      `json:"model"`
	X      []float64   `json:"x,omitempty"`
	Batch  [][]float64 `json:"batch,omitempty"`
	YBatch []float64   `json:"y_batch,omitempty"`
}

type wireResponse struct {
	Model    string    `json:"model"`
	Version  int       `json:"version"`
	Y        *float64  `json:"y,omitempty"`
	YBatch   []float64 `json:"y_batch,omitempty"`
	Ingested *int      `json:"ingested,omitempty"`
}

// call is one generated request with the answer it must get.
type call struct {
	path string // /predict or /observe
	name string
	body []byte
	x    [][]float64
	y    []float64 // /observe: the simulator's ground truth
	// want is the in-process answer a /predict must match bit for bit;
	// nil for /observe, which must report len(x) rows ingested.
	want []float64
}

func predictCall(m *registry.Model, X [][]float64) (*call, error) {
	c := &call{path: "/predict", name: m.Meta.Name, x: X, want: make([]float64, len(X))}
	req := wireRequest{Model: c.name}
	if len(X) == 1 {
		y, err := m.Predict(ctx, X[0])
		if err != nil {
			return nil, err
		}
		c.want[0] = y
		req.X = X[0]
	} else {
		if err := m.PredictBatchInto(ctx, X, c.want); err != nil {
			return nil, err
		}
		req.Batch = X
	}
	var err error
	c.body, err = json.Marshal(req)
	return c, err
}

func observeCall(name string, X [][]float64, y []float64) (*call, error) {
	body, err := json.Marshal(wireRequest{Model: name, Batch: X, YBatch: y})
	return &call{path: "/observe", name: name, body: body, x: X, y: y}, err
}

// check is the answer oracle for one HTTP response.
func (c *call) check(status int, raw []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", c.path, c.name, status, raw)
	}
	var r wireResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%s %s: %w", c.path, c.name, err)
	}
	if c.want == nil {
		if r.Ingested == nil || *r.Ingested != len(c.x) {
			return fmt.Errorf("/observe %s: sent %d rows, response %.200s", c.name, len(c.x), raw)
		}
		return nil
	}
	got := r.YBatch
	if r.Y != nil {
		got = []float64{*r.Y}
	}
	return sameBits(got, c.want)
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// sampleRows draws n rows (and their ground truth) with replacement.
func sampleRows(ds *dataset.Dataset, n int, rng *rand.Rand) ([][]float64, []float64) {
	X, y := make([][]float64, n), make([]float64, n)
	for i := range X {
		j := rng.Intn(ds.Len())
		X[i], y[i] = ds.X[j], ds.Y[j]
	}
	return X, y
}

// httpClient is the benchmark's caller: keep-alive connections, one per
// closed-loop client.
type httpClient struct{ hc *http.Client }

func newHTTPClient(conns int) *httpClient {
	return &httpClient{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second,
	}}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response.
func (c *httpClient) post(base string, cl *call) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+cl.path, bytes.NewReader(cl.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// roundTrip is one timed and checked request over loopback. The answer
// check runs after the clock stops.
func (c *httpClient) roundTrip(base string, cl *call) (time.Duration, error) {
	start := time.Now()
	status, raw, err := c.post(base, cl)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, cl.check(status, raw)
}

// memWriter is an in-memory http.ResponseWriter: it lets the traced run
// call a handler with no socket underneath.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// serveInProcess pushes one call through a handler with no socket and
// returns the response for checking.
func serveInProcess(h http.Handler, cl *call) (int, []byte) {
	req, _ := http.NewRequest(http.MethodPost, cl.path, bytes.NewReader(cl.body))
	req.Header.Set("Content-Type", "application/json")
	w := &memWriter{header: make(http.Header)}
	h.ServeHTTP(w, req)
	return w.status, w.body.Bytes()
}

// fixture is one set-up workload.
type fixture struct {
	// op runs the i-th operation of the seeded sequence and returns the
	// time the caller waited. A refused, failed or wrong answer is an
	// error.
	op func(i int) (time.Duration, error)
	// rows is the number of feature rows op i carries.
	rows func(i int) int
	// pass is the number of ops after which a timed window may end, so
	// a window always covers whole passes over a mixed op sequence.
	pass int
	// byPosition marks a workload whose pass is a handful of unlike ops
	// repeated a few times; see loopStats.summary.
	byPosition bool
	// serving marks the HTTP workloads: their traced run also measures
	// a closed loop with and without span recording.
	serving bool
	// counters adds the per-layer metrics read from the daemons'
	// exported counters.
	counters func(m metrics)
	// ladder replays the seeded inputs rung by rung.
	ladder func(l *ladder, m metrics)
	close  func()
}

// sample is one successful timed op.
type sample struct {
	op    int     // index in the seeded sequence
	latMs float64 // time the caller waited
	atS   float64 // completion time since the phase began
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	samples    []sample // successful ops only
	attempted  int
	failed     int
	firstErr   error
	rows       int
	elapsed    time.Duration
	allocBytes uint64
	gcs        uint32
}

func (st *loopStats) latencies() []float64 {
	lat := make([]float64, len(st.samples))
	for i, s := range st.samples {
		lat[i] = s.latMs
	}
	return lat
}

// windowSlices is the number of equal sub-windows a timed window is
// summarised over. A slice's p95 is spoilt by a stall covering a
// twentieth of it, so the slices are short: at 15 slices a stall has to
// touch half the window before it moves the reported tail.
const windowSlices = 15

// summary reduces a timed window to the reported median latency, tail
// latency and throughput. The window is cut into equal slices, each
// slice's p50, p95 and completed ops per second are taken, and the
// medians over the slices are reported: a burst from a noisy neighbour
// then moves a few slices, not the result, while a real slowdown moves
// every slice. A workload that repeats a fixed pass of unlike ops a few
// times (five figures) has too few samples for that; there each
// position of the pass is first reduced to its median over the passes,
// the percentiles are taken over the positions, and the throughput is
// one pass over the sum of the positions.
func (st *loopStats) summary(fx *fixture) (p50, p95, perSecond float64) {
	if fx.byPosition {
		byPos := make([][]float64, fx.pass)
		for _, s := range st.samples {
			byPos[s.op%fx.pass] = append(byPos[s.op%fx.pass], s.latMs)
		}
		var pos []float64
		var sumMs float64
		for _, v := range byPos {
			if len(v) > 0 {
				pos = append(pos, median(v))
				sumMs += median(v)
			}
		}
		pos = sorted(pos)
		return percentile(pos, 0.50), percentile(pos, 0.95), float64(len(pos)) / math.Max(sumMs/1e3, 1e-9)
	}
	sliceS := st.elapsed.Seconds() / windowSlices
	slices := make([][]float64, windowSlices)
	for _, s := range st.samples {
		k := min(int(s.atS/sliceS), windowSlices-1)
		slices[k] = append(slices[k], s.latMs)
	}
	var p50s, p95s, rates []float64
	for _, v := range slices {
		rates = append(rates, float64(len(v))/sliceS)
		if len(v) > 0 {
			v = sorted(v)
			p50s, p95s = append(p50s, percentile(v, 0.50)), append(p95s, percentile(v, 0.95))
		}
	}
	return median(p50s), median(p95s), median(rates)
}

// closedLoop drives fx from the given number of clients, each sending
// its next op only when the previous one has been answered. Ops are
// taken in sequence starting at index from. With count > 0 it runs
// exactly count ops (warm-up is by count, not time); otherwise it runs
// for dur and stops at the next pass boundary, so the ops run are
// always whole passes. With a tracer every op is recorded as a
// client.roundtrip span.
func closedLoop(fx *fixture, clients, from, count int, dur time.Duration, tr *tracer) loopStats {
	var (
		mu   sync.Mutex // guards next, done and st
		next = from
		done bool
		st   loopStats
		wg   sync.WaitGroup
		ms   runtime.MemStats
	)
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	start := time.Now()
	// take hands out the next op index, or false once the phase is over.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if count > 0 {
			done = done || next >= from+count
		} else if (next-from)%fx.pass == 0 {
			done = done || time.Since(start) >= dur
		}
		if done {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine loopStats
			for {
				i, ok := take()
				if !ok {
					break
				}
				var d time.Duration
				var err error
				if tr != nil {
					tr.record(i, 0, "client.roundtrip", 1, func() { d, err = fx.op(i) })
				} else {
					d, err = fx.op(i)
				}
				mine.attempted++
				if err != nil {
					mine.failed++
					if mine.firstErr == nil {
						mine.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
					continue
				}
				mine.rows += fx.rows(i)
				mine.samples = append(mine.samples, sample{i, float64(d.Nanoseconds()) / 1e6, time.Since(start).Seconds()})
			}
			mu.Lock()
			st.samples = append(st.samples, mine.samples...)
			st.attempted += mine.attempted
			st.failed += mine.failed
			st.rows += mine.rows
			if st.firstErr == nil {
				st.firstErr = mine.firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	st.allocBytes, st.gcs = ms.TotalAlloc-alloc0, ms.NumGC-gc0
	return st
}
