package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/serve"
)

// config is what every workload pass needs from the command line.
type config struct {
	seed    int64
	seconds int
	tmpDir  string // snapshot files
	nproc   int    // executors and client connections
}

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// workload is one traffic shape. Why each exists is in BENCHMARK.json.
type workload struct {
	name string
	n    int
	run  func(fx *fixture, cfg config, reps int, tr *tracer) (*pass, error)
}

var workloads = []workload{
	{"wire-sssp", 2000, runWire},
	{"lib-mixed-swap", 2000, runMixed},
	{"lib-batch-sweep", 4000, runBatch},
}

// Open-loop shapes.
const (
	wireRate   = 200 // queries/s, sssp only
	wireZipf   = 1.1 // root skew: hot roots repeat
	mixedRate  = 150 // queries/s, load.DefaultMix
	mixedSwaps = 0.5 // hot swaps/s, 4-edge insert deltas
	batchSize  = 64  // roots per ServeBatchCtx call
	spinWindow = time.Millisecond
)

func wireParams(seed int64, d time.Duration) load.Params {
	return load.Params{Rate: wireRate, Duration: d, Zipf: wireZipf, Mix: load.Mix{SSSP: 1}, Seed: seed}
}

func mixedParams(seed int64, d time.Duration) load.Params {
	return load.Params{Rate: mixedRate, Duration: d, UpdateRate: mixedSwaps, MaxUpdates: 1 << 10, Seed: seed}
}

// pass is one measured run of a workload: set-up, window, checks.
type pass struct {
	attempted, failed int64
	wrong             int64              // delivered answers that failed their check
	e2e               map[string]float64 // end-to-end metrics this workload has
	layer             map[string]float64 // per-layer metrics (traced pass)
	props             []prop             // workload properties
	notes             []string
}

type prop struct {
	name  string
	value float64
	unit  string
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (p *pass) prop(name string, v float64, unit string) {
	p.props = append(p.props, prop{name, v, unit})
}

// setUp runs build reps times, timing each from a freshly collected heap,
// and keeps the last environment (earlier ones are torn down). It returns
// the median set-up time in seconds.
func setUp[E any](reps int, build func(rep int) (E, func(), error)) (E, func(), float64, error) {
	var env E
	var teardown func()
	times := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		e, td, err := build(rep)
		if err != nil {
			var zero E
			return zero, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env, teardown = e, td
	}
	return env, teardown, median(times), nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runWire serves a persisted, mmap-loaded snapshot through the gateway on a
// loopback listener (the lcsserve -snapshot-in shape) to load.WireBackend.
func runWire(fx *fixture, cfg config, reps int, tr *tracer) (*pass, error) {
	type env struct {
		loaded      *serve.Snapshot
		srv         *serve.Server
		backend     *load.WireBackend
		write, read time.Duration
		fileMB      float64
	}
	reg := tr.registry()
	e, teardown, setupS, err := setUp(reps, func(rep int) (*env, func(), error) {
		e := &env{}
		t0 := time.Now()
		built, err := fx.build()
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		path := filepath.Join(cfg.tmpDir, fmt.Sprintf("wire-%d.snap", rep))
		if err := serve.WriteSnapshotFile(path, built); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{Metrics: reg})
		if err != nil {
			os.Remove(path)
			return nil, nil, err
		}
		t3 := time.Now()
		tr.add("serve.new_snapshot", "", tagSetup, rep, t0, t1)
		tr.add("snapio.write", "", tagSetup, rep, t1, t2)
		tr.add("snapio.load", "", tagSetup, rep, t2, t3)
		e.loaded, e.write, e.read = loaded, t2.Sub(t1), t3.Sub(t2)
		if st, err := os.Stat(path); err == nil {
			e.fileMB = float64(st.Size()) / 1e6
		}
		store := serve.NewStoreWith(loaded, serve.StoreOptions{Metrics: reg})
		e.srv = serve.NewStoreServer(store, serve.ServerOptions{Executors: cfg.nproc, Seed: serverSeed, Metrics: reg})
		gw, err := gateway.New(e.srv, gateway.Options{Metrics: reg})
		if err != nil {
			loaded.Close()
			os.Remove(path)
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			gw.Close()
			loaded.Close()
			os.Remove(path)
			return nil, nil, err
		}
		hs := &http.Server{Handler: tr.handlerSpans(gw.Handler())}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = hs.Serve(ln) // returns http.ErrServerClosed at teardown
		}()
		transport := &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc, DisableCompression: true}
		var rt http.RoundTripper = transport
		if tr != nil {
			rt = tagTransport{transport}
		}
		e.backend = load.NewWireBackend(ln.Addr().String(), &http.Client{Transport: rt})
		teardown := func() {
			hs.Close()
			<-served
			gw.Close()
			transport.CloseIdleConnections()
			loaded.Close()
			os.Remove(path)
		}
		if _, err := e.backend.Do(context.Background(), serve.SSSPQuery{Source: 0}); err != nil {
			teardown()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		return e, teardown, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer teardown()
	p := newPass()
	p.e2e["setup_s"] = setupS
	p.e2e["setup_heap_mb"] = heapMB()

	sched, err := load.BuildSchedule(wireParams(cfg.seed, cfg.window()), e.loaded)
	if err != nil {
		return nil, err
	}
	var before [numKinds]int64
	if tr != nil {
		before = execSums(reg)
	}
	loop := &openLoop{
		events:      sched.Events,
		spin:        spinWindow,
		tagRequests: tr != nil,
		call: func(ctx context.Context, q serve.Query) (load.Completion, serve.Answer, error) {
			c, err := e.backend.Do(ctx, q)
			return c, nil, err
		},
	}
	start := time.Now()
	reqs, spun := loop.run(context.Background(), start)
	window := time.Since(start)
	if tr != nil {
		serveLayer(p.layer, reg, before, cfg.nproc, window)
	}
	if err := openLoopResults(p, reqs, []*serve.Snapshot{e.loaded}, nil, window, spun); err != nil {
		return nil, err
	}

	// The codec's cost, measured after the window on the answers it served.
	encUs, decUs, kb, err := codecCost(e.srv, sampleRoots(reqs, 32))
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	p.prop("sssp_resp_kb", kb, "KB")
	if tr == nil {
		return p, nil
	}
	var client []float64
	for i, r := range reqs {
		if r.outcome != outOK {
			continue
		}
		client = append(client, ms(r.done-r.sent))
		tr.add("load.request", "", tagQuery, i, start.Add(r.due), start.Add(r.done))
		tr.add("gateway.client", "load.request", tagQuery, i, start.Add(r.sent), start.Add(r.done))
	}
	handle := median(tr.durations("gateway.handler", 0))
	p.layer["gateway.handle_p50_ms"] = handle
	p.layer["gateway.transport_p50_ms"] = median(client) - handle
	p.layer["gateway.encode_us"], p.layer["gateway.decode_us"], p.layer["gateway.resp_kb"] = encUs, decUs, kb
	p.layer["snapio.write_ms"], p.layer["snapio.load_ms"], p.layer["snapio.file_mb"] = ms(e.write), ms(e.read), e.fileMB
	if p.layer["serve.warm_sssp_us"], err = warmSSSP(e.srv, fx.n); err != nil {
		return nil, err
	}
	buildLayer(p, fx, e.loaded, tr)
	return p, nil
}

// runMixed drives a store-backed library server with the default five-kind
// mix while scheduled deltas are applied and swapped in.
func runMixed(fx *fixture, cfg config, reps int, tr *tracer) (*pass, error) {
	type env struct {
		store *serve.Store
		srv   *serve.Server
		call  caller
	}
	reg := tr.registry()
	e, teardown, setupS, err := setUp(reps, func(rep int) (*env, func(), error) {
		t0 := time.Now()
		built, err := fx.build()
		if err != nil {
			return nil, nil, err
		}
		tr.add("serve.new_snapshot", "", tagSetup, rep, t0, time.Now())
		e := &env{store: serve.NewStoreWith(built, serve.StoreOptions{Metrics: reg})}
		e.srv = serve.NewStoreServer(e.store, serve.ServerOptions{Executors: cfg.nproc, Seed: serverSeed, Metrics: reg})
		lib := &load.LibraryBackend{Srv: e.srv}
		e.call = func(ctx context.Context, q serve.Query) (load.Completion, serve.Answer, error) {
			switch q.(type) {
			case serve.SSSPQuery, serve.MSTQuery:
				c, err := lib.Do(ctx, q)
				return c, nil, err
			}
			// LibraryBackend returns an empty Completion for the heavy
			// kinds; the checker needs their answers whole, so they go to
			// the same server directly.
			a, err := lib.Srv.ServeCtx(ctx, q)
			return load.Completion{}, a, err
		}
		warm := []serve.Query{serve.SSSPQuery{}, serve.MSTQuery{}, serve.MinCutQuery{}, serve.TwoECSSQuery{}, serve.QualityQuery{}}
		for _, q := range warm {
			if _, _, err := e.call(context.Background(), q); err != nil {
				return nil, nil, fmt.Errorf("warm-up %T: %w", q, err)
			}
		}
		return e, func() {}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer teardown()
	p := newPass()
	p.e2e["setup_s"] = setupS
	p.e2e["setup_heap_mb"] = heapMB()

	base := e.store.Snapshot()
	sched, err := load.BuildSchedule(mixedParams(cfg.seed, cfg.window()), base)
	if err != nil {
		return nil, err
	}
	var before [numKinds]int64
	if tr != nil {
		before = execSums(reg)
	}
	var pending atomic.Int64
	loop := &openLoop{
		events:     sched.Events,
		spin:       spinWindow,
		call:       e.call,
		onDispatch: func() { storeMax(&pending, e.store.Pending()) },
	}
	start := time.Now()
	var ups []update
	var chain []*serve.Snapshot
	var upErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ups, chain, upErr = runUpdates(context.Background(), start, e.store, sched.Updates, &pending)
	}()
	reqs, spun := loop.run(context.Background(), start)
	wg.Wait()
	window := time.Since(start)
	if upErr != nil {
		return nil, upErr
	}
	if tr != nil {
		serveLayer(p.layer, reg, before, cfg.nproc, window)
		p.prop("heavy_busy_share", p.layer["serve.heavy_busy_share"], "ratio")
	}
	if err := openLoopResults(p, reqs, chain, ups, window, spun); err != nil {
		return nil, err
	}

	var swapMs, applyMs, swapUs []float64
	touched := 0
	for _, u := range ups {
		swapMs = append(swapMs, ms(u.swapEnd-u.due))
		applyMs = append(applyMs, ms(u.swapStart-u.applyStart))
		swapUs = append(swapUs, float64(u.swapEnd-u.swapStart)/float64(time.Microsecond))
		touched += u.touched
	}
	if len(ups) > 0 {
		p.e2e["swap_p50_ms"] = median(swapMs)
		p.prop("touched_parts_mean", float64(touched)/float64(len(ups)), "count")
	}
	p.prop("updates_applied", float64(len(ups)), "count")
	p.prop("sssp_resp_kb", float64(8*fx.n)/1024, "KB")
	if tr == nil {
		return p, nil
	}
	for i, r := range reqs {
		if r.outcome == outOK {
			tr.add("load.request", "", tagQuery, i, start.Add(r.due), start.Add(r.done))
			tr.add("serve.call", "load.request", tagQuery, i, start.Add(r.sent), start.Add(r.done))
		}
	}
	for i, u := range ups {
		tr.add("serve.apply_delta", "", tagUpdate, i, start.Add(u.applyStart), start.Add(u.swapStart))
		tr.add("serve.swap", "serve.apply_delta", tagUpdate, i, start.Add(u.swapStart), start.Add(u.swapEnd))
	}
	p.layer["serve.apply_delta_ms"] = median(applyMs)
	p.layer["serve.swap_us"] = median(swapUs)
	if len(ups) > 0 {
		p.layer["serve.touched_parts"] = float64(touched) / float64(len(ups))
	}
	p.layer["serve.pending_epochs_max"] = float64(pending.Load())
	var trees []float64
	for _, r := range reqs {
		if a, ok := r.ans.(*serve.MinCutAnswer); ok && r.outcome == outOK {
			trees = append(trees, float64(a.Trees))
		}
	}
	p.layer["mincut.trees"] = median(trees)
	if p.layer["serve.warm_sssp_us"], err = warmSSSP(e.srv, fx.n); err != nil {
		return nil, err
	}
	deltas := make([]graph.Delta, len(ups))
	for i := range ups {
		deltas[i] = sched.Updates[i].Delta
	}
	if note := replayDeltas(fx, chain, deltas, p.layer, tr); note != "" {
		p.notes = append(p.notes, note)
	}
	buildLayer(p, fx, base, tr)
	return p, nil
}

// runBatch is the closed-loop all-sources sweep: one caller calls
// ServeBatchCtx back to back with 64 distinct consecutive roots.
//
// One caller, not nproc: with two callers saturating both vCPUs, the same
// code on the same seed ran at 13 or at 17-18 ms per call depending on how
// the host placed the two busy vCPUs, and the ten-seed spread of the batch
// p50 reached a quarter of the median. A single stream measures the batched
// path's cost per row, which is what the walk-or-kernel decision needs.
func runBatch(fx *fixture, cfg config, reps int, tr *tracer) (*pass, error) {
	reg := tr.registry()
	srv, teardown, setupS, err := setUp(reps, func(rep int) (*serve.Server, func(), error) {
		t0 := time.Now()
		built, err := fx.build()
		if err != nil {
			return nil, nil, err
		}
		tr.add("serve.new_snapshot", "", tagSetup, rep, t0, time.Now())
		srv := serve.NewServer(built, serve.ServerOptions{Executors: cfg.nproc, Seed: serverSeed, Metrics: reg})
		if _, err := srv.ServeBatchCtx(context.Background(), sweepBatch(0, fx.n)); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		return srv, func() {}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer teardown()
	p := newPass()
	p.e2e["setup_s"] = setupS
	p.e2e["setup_heap_mb"] = heapMB()

	// The seed picks where the sweep starts; from there the caller visits
	// every source in turn.
	offset := rand.New(rand.NewSource(cfg.seed)).Intn(fx.n)
	type call struct {
		start, end       time.Duration
		rounds, messages float64
		failed           bool
	}
	type row struct {
		root int32
		hash uint64
	}
	var calls []call
	var rows []row
	var before [numKinds]int64
	if tr != nil {
		before = execSums(reg)
	}
	statsBefore := srv.Stats()
	start := time.Now()
	for k := 0; time.Since(start) < cfg.window(); k++ {
		qs := sweepBatch(offset+k*batchSize, fx.n)
		t0 := time.Since(start)
		answers, err := srv.ServeBatchCtx(context.Background(), qs)
		rec := call{start: t0, end: time.Since(start), failed: err != nil}
		if err == nil {
			st := answers[0].(*serve.SSSPAnswer).SchedStats
			rec.rounds, rec.messages = float64(st.Rounds), float64(st.Messages)
			for _, a := range answers {
				sa := a.(*serve.SSSPAnswer)
				rows = append(rows, row{int32(sa.Source), rowHash(sa.Dist)})
			}
		}
		calls = append(calls, rec)
	}
	window := time.Since(start)
	if tr != nil {
		serveLayer(p.layer, reg, before, cfg.nproc, window)
	}

	var lat, rounds, messages []float64
	delivered := 0
	for i, cl := range calls {
		p.attempted += batchSize
		if cl.failed {
			p.failed += batchSize
			continue
		}
		lat = append(lat, ms(cl.end-cl.start))
		rounds = append(rounds, cl.rounds)
		messages = append(messages, cl.messages)
		tr.add("serve.batch", "", tagBatch, i, start.Add(cl.start), start.Add(cl.end))
	}
	ck := newChecker([]*serve.Snapshot{srv.Snapshot()})
	seen := make(map[int32]bool, fx.n)
	repeats := 0
	for _, r := range rows {
		gen, err := ck.attribute(observation{kind: serve.KindSSSP, arg: int64(r.root), hash: r.hash})
		if err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		if gen < 0 {
			p.failed++
			p.wrong++
			continue
		}
		delivered++
		if seen[r.root] {
			repeats++
		}
		seen[r.root] = true
	}
	latencyMetrics(p, "sssp", lat, true)
	if v, ok := p.e2e["sssp_p50_ms"]; ok {
		p.e2e["batch_p50_ms"] = v
	}
	p.e2e["rows_per_s"] = float64(delivered) / window.Seconds()
	p.e2e["failed_share"] = float64(p.failed) / float64(p.attempted)
	p.prop("attempted.sssp", float64(p.attempted), "count")
	p.prop("delivered.sssp", float64(delivered), "count")
	p.prop("batch_calls", float64(len(lat)), "count")
	p.prop("sssp_repeat_share", float64(repeats)/float64(max(delivered, 1)), "ratio")
	p.prop("sssp_resp_kb", float64(8*fx.n)/1024, "KB")
	if tr == nil {
		return p, nil
	}
	stats := srv.Stats()
	p.layer["load.sssp_repeat_share"] = float64(repeats) / float64(max(delivered, 1))
	p.layer["serve.batch_ms"] = median(tr.durations("serve.batch", 0))
	p.layer["serve.coalesce_hits"] = float64((stats.CoalesceIn - stats.CoalesceOut) - (statsBefore.CoalesceIn - statsBefore.CoalesceOut))
	p.layer["sched.rounds_per_batch"] = mean(rounds)
	p.layer["sched.messages_per_batch"] = mean(messages)
	if p.layer["serve.warm_sssp_us"], err = warmSSSP(srv, fx.n); err != nil {
		return nil, err
	}
	buildLayer(p, fx, srv.Snapshot(), tr)
	return p, nil
}

// sweepBatch is the batch of batchSize consecutive sssp roots from first.
func sweepBatch(first, n int) []serve.Query {
	qs := make([]serve.Query, batchSize)
	for j := range qs {
		qs[j] = serve.SSSPQuery{Source: graph.NodeID((first + j) % n)}
	}
	return qs
}

// buildLayer replays the build and records the simulated construction cost.
func buildLayer(p *pass, fx *fixture, snap *serve.Snapshot, tr *tracer) {
	if note := replayBuild(fx, snap, p.layer, tr); note != "" {
		p.notes = append(p.notes, note)
	}
	c := snap.Cost()
	p.layer["mst.sim_rounds"] = float64(c.Rounds)
	p.layer["mst.sim_messages"] = float64(c.Messages)
}

// openLoopResults checks every delivered answer against chain (ups dates
// its swaps), then fills the pass's accounting, end-to-end metrics,
// properties and load-layer metrics.
func openLoopResults(p *pass, reqs []request, chain []*serve.Snapshot, ups []update, window, spun time.Duration) error {
	ck := newChecker(chain)
	var attempted, delivered [numKinds]int
	var lat [numKinds][]float64
	var late []float64
	for i := range reqs {
		r := &reqs[i]
		attempted[r.kind]++
		if r.outcome == outOK {
			lo, hi := genWindow(ups, r.sent, r.done)
			gen, err := ck.attribute(observation{r.kind, r.arg, r.hash, r.ans, lo, hi})
			if err != nil {
				return fmt.Errorf("check: %w", err)
			}
			if gen < 0 {
				r.outcome = outWrong
				p.wrong++
			}
			r.gen = gen
		}
		if r.outcome != outDropped && r.outcome != outCanceled {
			late = append(late, ms(r.sent-r.due))
		}
		if r.outcome != outOK {
			p.failed++
			continue
		}
		delivered[r.kind]++
		lat[r.kind] = append(lat[r.kind], ms(r.latency()))
	}
	p.attempted = int64(len(reqs))
	latencyMetrics(p, "sssp", lat[serve.KindSSSP], true)
	for _, k := range []serve.Kind{serve.KindMinCut, serve.KindTwoECSS, serve.KindQuality} {
		if attempted[k] > 0 {
			latencyMetrics(p, k.String(), lat[k], false)
		}
	}
	p.e2e["rows_per_s"] = float64(delivered[serve.KindSSSP]) / window.Seconds()
	p.e2e["failed_share"] = float64(p.failed) / float64(max(p.attempted, 1))
	for k := 0; k < numKinds; k++ {
		if attempted[k] > 0 {
			p.prop("attempted."+serve.Kind(k).String(), float64(attempted[k]), "count")
			p.prop("delivered."+serve.Kind(k).String(), float64(delivered[k]), "count")
		}
	}
	share := repeatShare(reqs)
	p.prop("sssp_repeat_share", share, "ratio")
	p.layer["load.sssp_repeat_share"] = share
	p.layer["load.late_p50_ms"] = pct(late, 0.5)
	p.layer["load.late_p99_ms"] = pct(late, 0.99)
	p.layer["load.spin_share"] = float64(spun) / float64(window)
	return nil
}

// latencyMetrics sets <kind>_p50_ms and, with withP99, <kind>_p99_ms. A
// quantile with too few samples behind it is left out, with a note.
func latencyMetrics(p *pass, kind string, lat []float64, withP99 bool) {
	qs := []float64{0.5}
	if withP99 {
		qs = append(qs, 0.99)
	}
	for _, q := range qs {
		name := fmt.Sprintf("%s_p%d_ms", kind, int(100*q))
		v, err := quantile(append([]float64(nil), lat...), q)
		if err != nil {
			p.notes = append(p.notes, name+": "+err.Error())
			continue
		}
		p.e2e[name] = v
	}
}

// repeatShare is the share of delivered sssp answers whose root was
// already asked, in send order, against the same generation.
func repeatShare(reqs []request) float64 {
	type key struct {
		root int64
		gen  int
	}
	seen := map[key]bool{}
	order := make([]int, 0, len(reqs))
	for i, r := range reqs {
		if r.outcome == outOK && r.kind == serve.KindSSSP {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].sent < reqs[order[b]].sent })
	repeats := 0
	for _, i := range order {
		k := key{reqs[i].arg, reqs[i].gen}
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return float64(repeats) / float64(max(len(order), 1))
}

// sampleRoots returns up to k distinct roots of delivered sssp answers, in
// schedule order.
func sampleRoots(reqs []request, k int) []graph.NodeID {
	seen := map[int64]bool{}
	var out []graph.NodeID
	for _, r := range reqs {
		if len(out) == k {
			break
		}
		if r.outcome == outOK && r.kind == serve.KindSSSP && !seen[r.arg] {
			seen[r.arg] = true
			out = append(out, graph.NodeID(r.arg))
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
