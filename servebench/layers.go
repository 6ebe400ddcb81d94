package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shortcut"
	"repro/internal/sssp"
)

// Span tags say what a span's req number counts.
const (
	tagQuery  = 'q' // an open-loop request (index into the schedule)
	tagUpdate = 'u' // a scheduled update
	tagBatch  = 'b' // a closed-loop ServeBatchCtx call
	tagSetup  = 's' // a set-up repetition
	tagReplay = 'r' // a replayed build (0) or delta (1 + update index)
)

// span is one timed call into a layer. Spans of one request share tag and
// req; parent names the enclosing span of the same request.
type span struct {
	name, parent string
	tag          byte
	req          int32
	start, end   time.Duration // since the tracer's origin
}

// tracer is the traced run's instrumentation: the program's own registry,
// attached to the server, store and snapshot loader, plus the spans the
// benchmark records around its calls into each layer. Spans stay in memory
// until write. A nil *tracer is the untraced run; every method is a no-op.
type tracer struct {
	origin time.Time
	reg    *obs.Registry
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), reg: obs.New(), spans: make([]span, 0, 1<<10)}
}

func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *tracer) add(name, parent string, tag byte, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, parent, tag, int32(req), start.Sub(t.origin), end.Sub(t.origin)})
	t.mu.Unlock()
}

// durations returns the durations in ms of the spans named name whose req
// is at least minReq.
func (t *tracer) durations(name string, minReq int32) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.req >= minReq {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"name":%q,"parent":%q,"req":"%c%d","start_ns":%d,"end_ns":%d}`+"\n",
			s.name, s.parent, s.tag, s.req, int64(s.start), int64(s.end))
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqHeader carries a traced wire request's index to the server side.
const reqHeader = "X-Bench-Req"

// tagTransport copies the request index from the context into a header.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

// handlerSpans wraps the gateway's mounted handler in a span per request.
func (t *tracer) handlerSpans(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			id = -1 // the untagged set-up warm-up
		}
		t.add("gateway.handler", "gateway.client", tagQuery, id, t0, time.Now())
	})
}

// execSums returns the serve layer's executor-time sums per kind (ns).
func execSums(reg *obs.Registry) [numKinds]int64 {
	var out [numKinds]int64
	for k := 0; k < numKinds; k++ {
		out[k] = reg.Histogram("lcs_serve_latency_ns", "kind", serve.Kind(k).String()).Snapshot().Sum
	}
	return out
}

// serveLayer fills the serve layer's registry metrics for one window:
// per-kind executor p50s, queue-wait p99, and executor busy shares relative
// to the sums before the window.
func serveLayer(layer map[string]float64, reg *obs.Registry, before [numKinds]int64, executors int, window time.Duration) {
	after := execSums(reg)
	var busy, heavy int64
	for k := 0; k < numKinds; k++ {
		d := after[k] - before[k]
		busy += d
		switch serve.Kind(k) {
		case serve.KindMinCut, serve.KindTwoECSS, serve.KindQuality:
			heavy += d
		}
	}
	capacity := float64(executors) * float64(window)
	layer["serve.busy_share"] = float64(busy) / capacity
	layer["serve.heavy_busy_share"] = float64(heavy) / capacity
	for _, k := range []serve.Kind{serve.KindSSSP, serve.KindMinCut, serve.KindTwoECSS, serve.KindQuality} {
		s := reg.Histogram("lcs_serve_latency_ns", "kind", k.String()).Snapshot()
		layer["serve.exec_p50_ms."+k.String()] = float64(s.Quantile(0.5)) / 1e6
	}
	qw := reg.Histogram("lcs_serve_queue_wait_ns").Snapshot()
	layer["serve.queue_wait_p99_ms"] = float64(qw.Quantile(0.99)) / 1e6
}

// warmSSSP times ServeSSSPInto on an otherwise idle server: the walk alone,
// with no queueing and no codec.
func warmSSSP(srv *serve.Server, n int) (float64, error) {
	var row []float64
	times := make([]float64, 0, 256)
	for i := 0; i < 256; i++ {
		src := graph.NodeID((i * 7919) % n)
		t0 := time.Now()
		var err error
		row, err = srv.ServeSSSPInto(row, src)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		times = append(times, float64(d)/float64(time.Microsecond))
	}
	return median(times), nil
}

// codecCost times the gateway's JSON codec on sssp responses for roots:
// json.Marshal of the public QueryResponse (what the gateway's encoder
// writes) and json.Unmarshal back (what the wire client decodes). It returns
// the median encode and decode µs per response and the mean size in KB.
func codecCost(srv *serve.Server, roots []graph.NodeID) (encUs, decUs, kb float64, err error) {
	var enc, dec []float64
	var bytes int
	for _, root := range roots {
		a, err := srv.ServeSSSP(root)
		if err != nil {
			return 0, 0, 0, err
		}
		resp := &gateway.QueryResponse{
			Kind:     "sssp",
			SSSP:     &gateway.SSSPResult{Source: int64(a.Source), Dist: gateway.DistVector(a.Dist)},
			Rounds:   a.Rounds,
			Messages: a.Messages,
		}
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			raw, err := json.Marshal(resp)
			t1 := time.Now()
			if err != nil {
				return 0, 0, 0, err
			}
			var back gateway.QueryResponse
			if err := json.Unmarshal(raw, &back); err != nil {
				return 0, 0, 0, err
			}
			t2 := time.Now()
			enc = append(enc, float64(t1.Sub(t0))/float64(time.Microsecond))
			dec = append(dec, float64(t2.Sub(t1))/float64(time.Microsecond))
			if rep == 0 {
				bytes += len(raw)
			}
		}
	}
	if len(roots) == 0 {
		return 0, 0, 0, nil
	}
	return median(enc), median(dec), float64(bytes) / float64(len(roots)) / 1024, nil
}

// replayBuild re-runs the public steps serve.NewSnapshot composes, on the
// same inputs and seed, timing each into layer (ms) and spans. If the
// replayed shortcuts or tree differ from snap's, NewSnapshot no longer
// composes these steps this way: the steps report unavailable.
func replayBuild(fx *fixture, snap *serve.Snapshot, layer map[string]float64, tr *tracer) (note string) {
	steps := []string{"shortcut.partition_ms", "shortcut.build_ms", "shortcut.quality_ms", "mst.distributed_ms", "sssp.index_ms"}
	fail := func(why string) string {
		for _, s := range steps {
			layer[s] = -1
		}
		return "build replay unavailable: " + why
	}
	rng := rand.New(rand.NewSource(fx.buildSeed))
	d := snap.Diameter()
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		layer[name+"_ms"] = ms(t1.Sub(t0))
		tr.add(name, "serve.new_snapshot", tagReplay, 0, t0, t1)
		return err
	}
	var p *shortcut.Partition
	var s *shortcut.Shortcuts
	var mres *mst.DistResult
	if err := timed("shortcut.partition", func() (err error) {
		p, err = shortcut.NewPartition(fx.g, fx.parts)
		return err
	}); err != nil {
		return fail(err.Error())
	}
	samplingSeed := rng.Uint64()
	if err := timed("shortcut.build", func() (err error) {
		s, err = shortcut.BuildSeeded(fx.g, p, shortcut.Options{Diameter: d}, samplingSeed)
		return err
	}); err != nil {
		return fail(err.Error())
	}
	if err := timed("shortcut.quality", func() error {
		_, err := s.PartDilations(context.Background(), 3000)
		return err
	}); err != nil {
		return fail(err.Error())
	}
	if err := timed("mst.distributed", func() (err error) {
		mres, err = mst.Distributed(fx.g, fx.w, mst.DistOptions{Rng: rng, Diameter: d})
		return err
	}); err != nil {
		return fail(err.Error())
	}
	if err := timed("sssp.index", func() error {
		_, err := sssp.NewTreeIndex(fx.g, fx.w, mres.Tree)
		return err
	}); err != nil {
		return fail(err.Error())
	}
	if !reflect.DeepEqual(s.H, snap.Shortcuts().H) || !reflect.DeepEqual(mres.Tree, snap.Tree()) {
		return fail("replayed shortcuts or tree differ from NewSnapshot's")
	}
	return ""
}

// replayDeltas re-runs the public steps serve.ApplyDelta composes for the
// first few applied updates of chain, timing each; layer gets the medians
// (ms). A replay whose shortcuts or tree differ from the chain's reports
// unavailable.
func replayDeltas(fx *fixture, chain []*serve.Snapshot, deltas []graph.Delta, layer map[string]float64, tr *tracer) (note string) {
	const maxReplays = 5
	names := []string{"graph.apply_delta", "shortcut.repair", "shortcut.repair_quality", "mst.mirror", "sssp.reindex"}
	times := make(map[string][]float64, len(names))
	fail := func(why string) string {
		for _, n := range names {
			layer[n+"_ms"] = -1
		}
		return "delta replay unavailable: " + why
	}
	// The build's first draw is the shortcut sampling seed every repair
	// reuses (serve.NewSnapshot).
	samplingSeed := rand.New(rand.NewSource(fx.buildSeed)).Uint64()
	for i := 0; i < len(deltas) && i < maxReplays && i+1 < len(chain); i++ {
		old, next, delta := chain[i], chain[i+1], deltas[i]
		mark := time.Now()
		step := func(name string) {
			now := time.Now()
			times[name] = append(times[name], ms(now.Sub(mark)))
			tr.add(name, "serve.apply_delta", tagReplay, i+1, mark, now)
			mark = now
		}
		g2, w2, rm, err := graph.ApplyDelta(old.Graph(), old.Weights(), delta)
		if err != nil {
			return fail(err.Error())
		}
		step("graph.apply_delta")
		qualityTouched := map[int]bool{}
		var recheck []int
		for _, uv := range delta.Delete {
			if pu, pv := old.Partition().PartOf(uv[0]), old.Partition().PartOf(uv[1]); pu >= 0 && pu == pv {
				recheck = append(recheck, int(pu))
				qualityTouched[int(pu)] = true
			}
		}
		for _, de := range delta.Insert {
			if pu, pv := old.Partition().PartOf(de.U), old.Partition().PartOf(de.V); pu >= 0 && pu == pv {
				qualityTouched[int(pu)] = true
			}
		}
		p2, err := old.Partition().Rebind(g2, recheck)
		if err != nil {
			return fail(err.Error())
		}
		// The verification delays never change the repaired state, but the
		// replay derives them as ApplyDelta does so it times the same
		// schedule.
		h := samplingSeed ^ (old.Generation()+1)*0x9E3779B97F4A7C15
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		rr, err := shortcut.RepairDistributed(g2, p2, old.Shortcuts(), rm, rm.Inserted, shortcut.RepairOptions{
			Seed:     samplingSeed,
			Diameter: old.Diameter(),
			Rng:      rand.New(rand.NewSource(int64(h >> 1))),
		})
		if err != nil {
			return fail(err.Error())
		}
		step("shortcut.repair")
		for _, pi := range rr.Touched {
			qualityTouched[pi] = true
		}
		for pi := range qualityTouched {
			if _, err := rr.S.PartDilation(pi, 3000); err != nil {
				return fail(err.Error())
			}
		}
		step("shortcut.repair_quality")
		tree, _, err := mst.BoruvkaMirror(g2, w2)
		if err != nil {
			return fail(err.Error())
		}
		step("mst.mirror")
		if _, err := sssp.NewTreeIndex(g2, w2, tree); err != nil {
			return fail(err.Error())
		}
		step("sssp.reindex")
		if !reflect.DeepEqual(rr.S.H, next.Shortcuts().H) || !reflect.DeepEqual(tree, next.Tree()) {
			return fail(fmt.Sprintf("update %d: replayed shortcuts or tree differ from ApplyDelta's", i))
		}
	}
	for _, n := range names {
		layer[n+"_ms"] = median(times[n])
	}
	return ""
}
