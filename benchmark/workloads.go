package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lam/internal/artifact"
	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/gateway"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/registry"
	"lam/internal/telemetry"
)

// undo collects a set-up's teardown steps; run reverses them.
type undo []func()

func (u *undo) add(f func()) { *u = append(*u, f) }
func (u undo) run() {
	for i := len(u) - 1; i >= 0; i-- {
		u[i]()
	}
}

// scratchRegistry opens a registry in a fresh scratch directory that
// the set-up's teardown removes.
func (e *env) scratchRegistry(name string, u *undo) (string, *registry.Registry, error) {
	dir, err := e.scratch(name)
	if err != nil {
		return "", nil, err
	}
	u.add(func() { os.RemoveAll(dir) })
	reg, err := registry.Open(dir)
	return dir, reg, err
}

// largeModelRungs times what every workload built on et-large pays at
// set-up: the fit and the publish.
func (l *ladder) largeModelRungs(m metrics, e *env, reg *registry.Registry, p *ml.Pipeline, train *dataset.Dataset) {
	m["ml.fit_large_ms"] = l.repeat("ml.fit_large", 3, 1, func() error {
		return e.pipeline(e.seed).Fit(train.X, train.Y)
	}) / 1e6
	m["registry.save_ms"] = l.repeat("registry.save", 3, 1, func() error {
		meta := largeMeta(train)
		meta.Name = "et-save"
		_, err := reg.SaveRegressor(p, meta)
		return err
	}) / 1e6
	m["ml.nodes"] = float64(ml.StatsOf(p).Nodes)
}

// repeat times reps runs of fn (each a loop of calls identical calls)
// as root spans and returns the median nanoseconds per call.
func (l *ladder) repeat(name string, reps, calls int, fn func() error) float64 {
	for r := 0; r < reps; r++ {
		l.rung(r, 0, name, calls, func() func() error {
			var err error
			for c := 0; c < calls && err == nil; c++ {
				err = fn()
			}
			return func() error { return err }
		})
	}
	return l.med(name)
}

// allocsPer runs fn n times and returns heap objects and bytes
// allocated per run.
func allocsPer(n int, fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// httpRung is a real loopback round trip as one rung.
func (l *ladder) httpRung(req, parent int, name string, cli *httpClient, base string, cl *call) int {
	return l.rung(req, parent, name, 1, func() func() error {
		status, raw, err := cli.post(base, cl)
		return func() error {
			if err != nil {
				return err
			}
			return cl.check(status, raw)
		}
	})
}

// handlerRung is the same request through a handler with no socket.
func (l *ladder) handlerRung(req, parent int, name string, h http.Handler, cl *call) int {
	return l.rung(req, parent, name, 1, func() func() error {
		status, raw := serveInProcess(h, cl)
		return func() error { return cl.check(status, raw) }
	})
}

// predictRung scores the call's rows on a loaded registry model.
func (l *ladder) predictRung(req, parent int, name string, m *registry.Model, cl *call) int {
	out := make([]float64, len(cl.x))
	return l.rung(req, parent, name, 1, func() func() error {
		var err error
		if len(cl.x) == 1 {
			out[0], err = m.Predict(ctx, cl.x[0])
		} else {
			err = m.PredictBatchInto(ctx, cl.x, out)
		}
		return func() error {
			if err != nil || cl.want == nil {
				return err
			}
			return sameBits(out, cl.want)
		}
	})
}

// hybridRungs replays one row below registry.predict: the hybrid model,
// then its analytical and ml components.
func (l *ladder) hybridRungs(req, parent int, m *registry.Model, am hybrid.AnalyticalModel, cl *call) {
	x := cl.x[0]
	hy := m.Hybrid()
	hp := l.rung(req, parent, "hybrid.predict", 1, func() func() error {
		y, err := hy.Predict(x)
		return func() error {
			if err != nil {
				return err
			}
			return sameBits([]float64{y}, cl.want)
		}
	})
	var amY float64
	const amCalls = 32 // one call is shorter than the clock resolves
	l.rung(req, hp, "analytical.predict", amCalls, func() func() error {
		var err error
		for c := 0; c < amCalls && err == nil; c++ {
			amY, err = am.Predict(x)
		}
		return func() error { return err }
	})
	aug := append(append(make([]float64, 0, len(x)+1), x...), amY)
	l.rung(req, hp, "ml.predict", 1, func() func() error {
		y := hy.ML().Predict(aug)
		return func() error { return sameBits([]float64{y}, cl.want) }
	})
}

// codecRef times the standard library's JSON decode of each call's
// request plus the encode of its answer: an upper estimate of the JSON
// share of the serve layer's self time, not a span inside it.
func (l *ladder) codecRef(pool []*call, reps int) float64 {
	i := 0
	return l.repeat("serve.codec_ref", reps, 1, func() error {
		cl := pool[i%len(pool)]
		i++
		var req wireRequest
		dec := json.NewDecoder(bytes.NewReader(cl.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return err
		}
		resp := wireResponse{Model: cl.name, Version: 1}
		if len(cl.want) == 1 {
			resp.Y = &cl.want[0]
		} else {
			resp.YBatch = cl.want
		}
		return json.NewEncoder(io.Discard).Encode(resp)
	})
}

// serveCounters reads the replicas' exported counters (totals since
// boot, warm-up included).
func serveCounters(m metrics, reps ...*replica) {
	var rows, flushes, sumNs, n, misses float64
	for _, r := range reps {
		sm := &r.srv.Metrics
		rows += float64(sm.CoalesceRows.Load())
		flushes += float64(sm.CoalesceFlushes.Load())
		sumNs += float64(sm.PredictLatency.SumNs())
		n += float64(sm.PredictLatency.Count())
		misses += float64(sm.ModelCacheMisses.Load())
	}
	if flushes > 0 {
		m["serve.coalesce_rows_per_flush"] = rows / flushes
	}
	if n > 0 {
		m["serve.predict_hist_mean_us"] = sumNs / n / 1e3
	}
	m["serve.model_cache_misses"] = misses
}

// telemetryRungs times the telemetry plane's per-request primitives
// and one scrape of a loaded replica.
func (l *ladder) telemetryRungs(m metrics, rep *replica) {
	rec := telemetry.NewRecorder(256)
	header := make(http.Header)
	m["telemetry.trace_ns"] = l.repeat("telemetry.trace", 200, 64, func() error {
		tr := rec.StartFromHeader(header, "predict")
		for _, s := range [...]string{"admission", "predict", "respond"} {
			tr.StartSpan(s).End()
		}
		rec.Finish(tr)
		return nil
	})
	hist := telemetry.NewRegistry().Histogram("bench_latency_seconds", "benchmark probe")
	m["telemetry.hist_observe_ns"] = l.repeat("telemetry.hist_observe", 200, 256, func() error {
		hist.Observe(137 * time.Microsecond)
		return nil
	})
	m["telemetry.scrape_ms"] = l.repeat("telemetry.scrape", 20, 1, func() error {
		return rep.srv.Telemetry.WriteExposition(io.Discard)
	}) / 1e6
}

func setupReplicaSingle(e *env) (fx *fixture, err error) {
	var u undo
	defer func() {
		if err != nil {
			u.run()
		}
	}()
	ds, err := e.dataset()
	if err != nil {
		return nil, err
	}
	hy, meta, train, err := e.trainHybrid(ds, 0)
	if err != nil {
		return nil, err
	}
	dir, reg, err := e.scratchRegistry("replica_single", &u)
	if err != nil {
		return nil, err
	}
	if _, err = reg.SaveHybrid(hy, meta); err != nil {
		return nil, err
	}
	model, err := reg.Load(meta.Name, 0)
	if err != nil {
		return nil, err
	}
	rep, err := startReplica(dir, false)
	if err != nil {
		return nil, err
	}
	u.add(rep.close)
	cli := newHTTPClient(e.clients)
	u.add(cli.close)
	pool := make([]*call, 2048)
	rng := e.rng(200)
	for i := range pool {
		X, _ := sampleRows(ds, 1, rng)
		if pool[i], err = predictCall(model, X); err != nil {
			return nil, err
		}
	}
	return &fixture{
		op:       func(i int) (time.Duration, error) { return cli.roundTrip(rep.lb.url, pool[i%len(pool)]) },
		rows:     func(int) int { return 1 },
		pass:     1,
		serving:  true,
		counters: func(m metrics) { serveCounters(m, rep) },
		close:    u.run,
		ladder: func(l *ladder, m metrics) {
			am, err := registry.AnalyticalFor(model.Meta)
			if err != nil {
				l.err = err
				return
			}
			n := e.count(2000)
			for i := 0; i < n; i++ {
				cl := pool[i%len(pool)]
				root := l.httpRung(i, 0, "client.roundtrip", cli, rep.lb.url, cl)
				sh := l.handlerRung(i, root, "serve.handler", rep.h, cl)
				rp := l.predictRung(i, sh, "registry.predict", model, cl)
				l.hybridRungs(i, rp, model, am, cl)
			}
			m["client.http_single_us"] = l.med("client.roundtrip") / 1e3
			m["net.self_single_us"] = l.self("client.roundtrip", "serve.handler") / 1e3
			m["serve.handler_single_us"] = l.med("serve.handler") / 1e3
			m["serve.self_single_us"] = l.self("serve.handler", "registry.predict") / 1e3
			m["registry.predict_row_us"] = l.med("registry.predict") / 1e3
			m["hybrid.predict_row_us"] = l.med("hybrid.predict") / 1e3
			m["analytical.predict_ns"] = l.med("analytical.predict")
			m["ml.predict_row_us"] = l.med("ml.predict") / 1e3
			m["serve.codec_ref_single_us"] = l.codecRef(pool, e.count(2000)) / 1e3
			i := 0
			m["serve.allocs_per_req_single"], _ = allocsPer(e.count(500), func() {
				serveInProcess(rep.h, pool[i%len(pool)])
				i++
			})
			m["registry.latest_version_us"] = l.repeat("registry.latest_version", e.count(500), 1, func() error {
				_, err := reg.LatestVersion(meta.Name)
				return err
			}) / 1e3
			m["hybrid.train_ms"] = l.repeat("hybrid.train", 5, 1, func() error {
				_, err := hybrid.TrainCtx(ctx, train, am, e.hybridConfig(e.seed))
				return err
			}) / 1e6
			m["ml.fit_small_ms"] = l.repeat("ml.fit_small", 5, 1, func() error {
				return e.pipeline(e.seed).Fit(train.X, train.Y)
			}) / 1e6
			l.telemetryRungs(m, rep)
		},
	}, nil
}

func setupReplicaBatch(e *env) (fx *fixture, err error) {
	var u undo
	defer func() {
		if err != nil {
			u.run()
		}
	}()
	ds, err := e.dataset()
	if err != nil {
		return nil, err
	}
	p, train, err := e.fitLarge(ds)
	if err != nil {
		return nil, err
	}
	dir, reg, err := e.scratchRegistry("replica_batch", &u)
	if err != nil {
		return nil, err
	}
	meta, err := reg.SaveRegressor(p, largeMeta(train))
	if err != nil {
		return nil, err
	}
	model, err := reg.Load(meta.Name, 0)
	if err != nil {
		return nil, err
	}
	rep, err := startReplica(dir, false)
	if err != nil {
		return nil, err
	}
	u.add(rep.close)
	cli := newHTTPClient(e.clients)
	u.add(cli.close)
	pool := make([]*call, 32)
	rng := e.rng(200)
	for i := range pool {
		X, _ := sampleRows(ds, batchRows, rng)
		if pool[i], err = predictCall(model, X); err != nil {
			return nil, err
		}
	}
	return &fixture{
		op:       func(i int) (time.Duration, error) { return cli.roundTrip(rep.lb.url, pool[i%len(pool)]) },
		rows:     func(int) int { return batchRows },
		pass:     1,
		serving:  true,
		counters: func(m metrics) { serveCounters(m, rep) },
		close:    u.run,
		ladder: func(l *ladder, m metrics) {
			out := make([]float64, batchRows)
			n := e.count(200)
			for i := 0; i < n; i++ {
				cl := pool[i%len(pool)]
				root := l.httpRung(i, 0, "client.roundtrip", cli, rep.lb.url, cl)
				sh := l.handlerRung(i, root, "serve.handler", rep.h, cl)
				rp := l.predictRung(i, sh, "registry.predict", model, cl)
				l.rung(i, rp, "ml.predict", 1, func() func() error {
					err := ml.PredictBatchInto(model.Regressor(), cl.x, out, model.Workers)
					return func() error {
						if err != nil {
							return err
						}
						return sameBits(out, cl.want)
					}
				})
			}
			m["client.http_batch512_us"] = l.med("client.roundtrip") / 1e3
			m["net.self_batch512_us"] = l.self("client.roundtrip", "serve.handler") / 1e3
			m["serve.handler_batch512_us"] = l.med("serve.handler") / 1e3
			m["serve.self_batch512_us"] = l.self("serve.handler", "registry.predict") / 1e3
			m["registry.predict_batch512_us"] = l.med("registry.predict") / 1e3
			m["ml.predict_batch512_us"] = l.med("ml.predict") / 1e3
			m["serve.codec_ref_batch512_us"] = l.codecRef(pool, e.count(200)) / 1e3
			i := 0
			_, bytes := allocsPer(e.count(100), func() {
				serveInProcess(rep.h, pool[i%len(pool)])
				i++
			})
			m["serve.alloc_kb_per_req_batch512"] = bytes / 1e3
			// The zero-allocation contract of the traversal kernel is
			// stated for one worker.
			objects, _ := allocsPer(e.count(100), func() {
				_ = ml.PredictBatchInto(model.Regressor(), pool[0].x, out, 1)
			})
			m["ml.allocs_per_row"] = objects / batchRows
			row := pool[0].x[0]
			m["registry.predict_row_us"] = l.repeat("registry.predict_row", e.count(2000), 1, func() error {
				_, err := model.Predict(ctx, row)
				return err
			}) / 1e3
			m["ml.predict_row_us"] = l.repeat("ml.predict_row", e.count(2000), 1, func() error {
				model.Regressor().Predict(row)
				return nil
			}) / 1e3
			l.largeModelRungs(m, e, reg, p, train)
		},
	}, nil
}

func setupFleetMixed(e *env) (fx *fixture, err error) {
	var u undo
	defer func() {
		if err != nil {
			u.run()
		}
	}()
	ds, err := e.dataset()
	if err != nil {
		return nil, err
	}
	dir, reg, err := e.scratchRegistry("fleet_mixed", &u)
	if err != nil {
		return nil, err
	}
	const nModels = 8
	models := make([]*registry.Model, nModels)
	for k := range models {
		hy, meta, _, err := e.trainHybrid(ds, k)
		if err != nil {
			return nil, err
		}
		if _, err = reg.SaveHybrid(hy, meta); err != nil {
			return nil, err
		}
		if models[k], err = reg.Load(meta.Name, 0); err != nil {
			return nil, err
		}
	}
	reps := make([]*replica, 2)
	urls := make([]string, len(reps))
	for i := range reps {
		if reps[i], err = startReplica(dir, true); err != nil {
			return nil, err
		}
		u.add(reps[i].close)
		urls[i] = reps[i].lb.url
	}
	gw, err := gateway.New(urls, gateway.Config{Logger: quiet})
	if err != nil {
		return nil, err
	}
	u.add(gw.Close)
	gwHandler := gw.Handler()
	front, err := listen(gwHandler)
	if err != nil {
		return nil, err
	}
	u.add(front.close)
	cli := newHTTPClient(e.clients)
	u.add(cli.close)
	// Seven single-row /predict, then one 32-row /observe whose
	// observations are the simulator's ground truth.
	pool := make([]*call, 4096)
	modelOf := make([]int, len(pool))
	rng := e.rng(200)
	for i := range pool {
		k := rng.Intn(nModels)
		modelOf[i] = k
		if i%8 == 7 {
			X, y := sampleRows(ds, observeRows, rng)
			pool[i], err = observeCall(models[k].Meta.Name, X, y)
		} else {
			X, _ := sampleRows(ds, 1, rng)
			pool[i], err = predictCall(models[k], X)
		}
		if err != nil {
			return nil, err
		}
	}
	return &fixture{
		op:      func(i int) (time.Duration, error) { return cli.roundTrip(front.url, pool[i%len(pool)]) },
		rows:    func(i int) int { return len(pool[i%len(pool)].x) },
		pass:    8,
		serving: true,
		close:   u.run,
		counters: func(m metrics) {
			serveCounters(m, reps...)
			gm := &gw.Metrics
			if n := gm.RouteLatency.Count(); n > 0 {
				m["gateway.route_mean_us"] = float64(gm.RouteLatency.SumNs()) / float64(n) / 1e3
			}
			m["gateway.retries"] = float64(gm.Retries.Load())
			m["gateway.spills"] = float64(gm.Spilled429.Load() + gm.SpilledFailure.Load())
			a := float64(reps[0].srv.Metrics.PredictRequests.Load())
			b := float64(reps[1].srv.Metrics.PredictRequests.Load())
			m["gateway.replica_skew"] = math.Max(a, b) / math.Max(math.Min(a, b), 1)
		},
		ladder: func(l *ladder, m metrics) {
			// A model's home replica is the one the idle gateway
			// routes it to.
			home := make([]*replica, nModels)
			for k, md := range models {
				X, _ := sampleRows(ds, 1, rng)
				probe, err := predictCall(md, X)
				if err != nil {
					l.err = err
					return
				}
				before := reps[0].srv.Metrics.PredictRequests.Load()
				if _, err := cli.roundTrip(front.url, probe); err != nil {
					l.err = err
					return
				}
				home[k] = reps[1]
				if reps[0].srv.Metrics.PredictRequests.Load() > before {
					home[k] = reps[0]
				}
			}
			plane := onlinePlane(reg)
			defer plane.Close()
			predicted := make([]float64, observeRows)
			n := e.count(2000)
			for i := 0; i < n; i++ {
				cl, md, rep := pool[i%len(pool)], models[modelOf[i%len(pool)]], home[modelOf[i%len(pool)]]
				if cl.want == nil {
					root := l.httpRung(i, 0, "client.roundtrip.observe", cli, front.url, cl)
					gh := l.handlerRung(i, root, "gateway.handler.observe", gwHandler, cl)
					sh := l.handlerRung(i, gh, "serve.handler.observe", rep.h, cl)
					l.predictRung(i, sh, "registry.predict.observe", md, cl)
					if err := md.PredictBatchInto(ctx, cl.x, predicted); err != nil {
						l.err = err
						return
					}
					l.rung(i, sh, "online.observe", 1, func() func() error {
						_, err := plane.Observe(md, cl.x, predicted, cl.y)
						return func() error { return err }
					})
					continue
				}
				root := l.httpRung(i, 0, "client.roundtrip", cli, front.url, cl)
				// The gateway's own cost is tens of microseconds
				// beside a 1 ms coalesce wait, and whichever of two
				// back-to-back requests goes second finds the replica
				// warmer; alternating the order cancels that bias in
				// the per-request difference.
				var gh, direct int
				if i%2 == 0 {
					gh = l.handlerRung(i, root, "gateway.handler", gwHandler, cl)
					direct = l.httpRung(i, gh, "client.roundtrip.direct", cli, rep.lb.url, cl)
				} else {
					direct = l.httpRung(i, root+1, "client.roundtrip.direct", cli, rep.lb.url, cl)
					gh = l.handlerRung(i, root, "gateway.handler", gwHandler, cl)
				}
				sh := l.handlerRung(i, direct, "serve.handler", rep.h, cl)
				l.predictRung(i, sh, "registry.predict", md, cl)
			}
			m["client.http_gateway_us"] = l.med("client.roundtrip") / 1e3
			m["client.http_single_us"] = l.med("client.roundtrip.direct") / 1e3
			m["gateway.handler_single_us"] = l.med("gateway.handler") / 1e3
			m["gateway.self_single_us"] = l.self("gateway.handler", "client.roundtrip.direct") / 1e3
			m["net.self_single_us"] = l.self("client.roundtrip.direct", "serve.handler") / 1e3
			m["serve.handler_single_us"] = l.med("serve.handler") / 1e3
			m["serve.self_single_us"] = l.self("serve.handler", "registry.predict") / 1e3
			m["registry.predict_row_us"] = l.med("registry.predict") / 1e3
			m["serve.handler_observe32_us"] = l.med("serve.handler.observe") / 1e3
			m["online.observe32_us"] = l.med("online.observe") / 1e3
			m["registry.latest_version_us"] = l.repeat("registry.latest_version", e.count(500), 1, func() error {
				_, err := reg.LatestVersion(models[0].Meta.Name)
				return err
			}) / 1e3
		},
	}, nil
}

// artifactPath finds the one model file of a published version.
func artifactPath(dir, name string) (string, error) {
	files, err := filepath.Glob(filepath.Join(dir, name, "v*", "model.*"))
	if err != nil || len(files) != 1 {
		return "", fmt.Errorf("expected one artifact of %s under %s, found %v (%v)", name, dir, files, err)
	}
	return files[0], nil
}

func setupColdLoad(e *env) (fx *fixture, err error) {
	var u undo
	defer func() {
		if err != nil {
			u.run()
		}
	}()
	ds, err := e.dataset()
	if err != nil {
		return nil, err
	}
	p, train, err := e.fitLarge(ds)
	if err != nil {
		return nil, err
	}
	dir, reg, err := e.scratchRegistry("cold_load", &u)
	if err != nil {
		return nil, err
	}
	meta, err := reg.SaveRegressor(p, largeMeta(train))
	if err != nil {
		return nil, err
	}
	// A loaded model's first prediction must equal the publisher's.
	rows, _ := sampleRows(ds, 256, e.rng(200))
	want := make([]float64, len(rows))
	for i, x := range rows {
		want[i] = p.Predict(x)
	}
	load := func(i int) (*registry.Model, error) {
		r, err := registry.Open(dir)
		if err != nil {
			return nil, err
		}
		return r.Load(meta.Name, 0)
	}
	first := func(m *registry.Model, i int) error {
		y, err := m.Predict(ctx, rows[i%len(rows)])
		if err != nil {
			return err
		}
		return sameBits([]float64{y}, want[i%len(rows):i%len(rows)+1])
	}
	return &fixture{
		op: func(i int) (time.Duration, error) {
			start := time.Now()
			m, err := load(i)
			if err != nil {
				return time.Since(start), err
			}
			err = first(m, i)
			return time.Since(start), err
		},
		rows:  func(int) int { return 1 },
		pass:  1,
		close: u.run,
		ladder: func(l *ladder, m metrics) {
			path, err := artifactPath(dir, meta.Name)
			if err != nil {
				l.err = err
				return
			}
			codec, err := artifact.ByName(meta.Format)
			if err != nil {
				l.err = err
				return
			}
			opts := artifact.DecodeOptions{Kind: meta.Kind}
			n := e.count(30)
			for i := 0; i < n; i++ {
				var loaded *registry.Model
				root := l.rung(i, 0, "registry.load", 1, func() func() error {
					var err error
					loaded, err = load(i)
					return func() error { return err }
				})
				var data []byte
				l.rung(i, root, "artifact.read", 1, func() func() error {
					var err error
					data, err = os.ReadFile(path)
					return func() error { return err }
				})
				l.rung(i, root, "artifact.decode", 1, func() func() error {
					_, err := codec.Decode(data, opts)
					return func() error { return err }
				})
				if l.err != nil {
					return
				}
				l.rung(i, 0, "registry.first_predict", 1, func() func() error {
					err := first(loaded, i)
					return func() error { return err }
				})
			}
			m["registry.load_ms"] = l.med("registry.load") / 1e6
			m["registry.load_self_ms"] = l.self("registry.load", "artifact.read", "artifact.decode") / 1e6
			m["artifact.read_ms"] = l.med("artifact.read") / 1e6
			m["artifact.decode_ms"] = l.med("artifact.decode") / 1e6
			m["registry.predict_row_us"] = l.med("registry.first_predict") / 1e3
			data, err := os.ReadFile(path)
			if err != nil {
				l.err = err
				return
			}
			m["artifact.file_mb"] = float64(len(data)) / 1e6
			_, bytes := allocsPer(e.count(30), func() { _, _ = codec.Decode(data, opts) })
			m["artifact.decode_alloc_mb"] = bytes / 1e6
			payload := &artifact.Payload{Regressor: p}
			m["artifact.encode_ms"] = l.repeat("artifact.encode", 5, 1, func() error {
				return codec.Encode(io.Discard, payload)
			}) / 1e6
			l.largeModelRungs(m, e, reg, p, train)
		},
	}, nil
}

// figure is one of the paper figures the benchmark regenerates, with
// the dataset behind it and the largest training fraction it sweeps.
// fig3b is left out only for time: 12 s alone, same code path as fig3a.
type figure struct {
	id       string
	dataset  string
	fraction float64
}

var figures = []figure{
	{"fig3a", "stencil-blocking", 0.10},
	{"fig5", "stencil-grid", 0.04},
	{"fig6", "stencil-blocking", 0.04},
	{"fig7", "stencil-threads", 0.04},
	{"fig8", "fmm", 0.25},
}

func setupPaperFigures(e *env) (*fixture, error) {
	opts := experiments.Options{Seed: e.seed, Reps: 7, Trees: 100}
	if e.tiny {
		opts.Reps, opts.Trees = 1, 5
	}
	oracle, err := newFigureOracle(e, opts)
	if err != nil {
		return nil, err
	}
	run := func(f figure) (*experiments.Report, time.Duration, error) {
		start := time.Now()
		r, err := experiments.RunCtx(ctx, f.id, opts)
		d := time.Since(start)
		if err != nil {
			return nil, d, err
		}
		return r, d, oracle.check(r)
	}
	// Two cheap figures before the clock starts fill the worker pool and
	// the scratch pools.
	for _, f := range []figure{figures[1], figures[3]} {
		if _, _, err := run(f); err != nil {
			return nil, err
		}
	}
	return &fixture{
		op: func(i int) (time.Duration, error) {
			_, d, err := run(figures[i%len(figures)])
			return d, err
		},
		rows:       func(int) int { return 0 },
		pass:       len(figures),
		byPosition: true,
		close:      func() {},
		ladder: func(l *ladder, m metrics) {
			bw := machine.BlueWatersXE6()
			for i, f := range figures {
				var rep *experiments.Report
				root := l.rung(i, 0, "experiments.figure."+f.id, 1, func() func() error {
					var err error
					rep, _, err = run(f)
					return func() error { return err }
				})
				if l.err != nil {
					return
				}
				m["experiments.figure_ms."+f.id] = l.med("experiments.figure."+f.id) / 1e6
				if f.id == "fig6" {
					m["experiments.hybrid_mape_pct"] = hybridMAPE(rep)
				}
				// One representative trial of the figure, layer by
				// layer: the figure itself runs reps x fractions of
				// these inside RunCtx.
				var ds, train, rest *dataset.Dataset
				l.rung(i, root, "experiments.dataset_build", 1, func() func() error {
					var err error
					ds, err = experiments.DatasetByName(f.dataset, bw, uint64(e.seed))
					return func() error { return err }
				})
				if l.err != nil {
					return
				}
				am, err := experiments.AMByDataset(f.dataset, bw)
				if err == nil {
					train, rest, err = ds.SampleFraction(f.fraction, e.rng(300))
				}
				if err != nil {
					l.err = err
					return
				}
				l.rung(i, root, "analytical.predict", ds.Len(), func() func() error {
					var err error
					for _, x := range ds.X {
						if _, err = am.Predict(x); err != nil {
							break
						}
					}
					return func() error { return err }
				})
				var hy *hybrid.Model
				l.rung(i, root, "hybrid.train", 1, func() func() error {
					var err error
					hy, err = hybrid.TrainCtx(ctx, train, am, e.hybridConfig(e.seed))
					return func() error { return err }
				})
				l.rung(i, root, "ml.fit", 1, func() func() error {
					err := e.pipeline(e.seed).Fit(train.X, train.Y)
					return func() error { return err }
				})
				if l.err != nil {
					return
				}
				l.rung(i, root, "experiments.eval", 1, func() func() error {
					_, err := hy.MAPE(rest)
					return func() error { return err }
				})
				if f.id == "fig6" {
					last := func(name string) float64 { d := l.dur[name]; return d[len(d)-1] }
					m["experiments.dataset_build_ms"] = last("experiments.dataset_build") / 1e6
					m["analytical.predict_ns"] = last("analytical.predict")
					m["hybrid.train_ms"] = last("hybrid.train") / 1e6
					m["ml.fit_small_ms"] = last("ml.fit") / 1e6
				}
			}
			var pass float64
			for _, f := range figures {
				pass += l.med("experiments.figure." + f.id)
			}
			m["experiments.pass_s"] = pass / 1e9
		},
	}, nil
}

// hybridMAPE is the hybrid series' mean MAPE at its largest fraction.
func hybridMAPE(r *experiments.Report) float64 {
	s := r.Series[len(r.Series)-1]
	return s.MeanMAPE[len(s.MeanMAPE)-1]
}
