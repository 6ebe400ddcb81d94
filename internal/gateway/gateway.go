// Package gateway is the network front end of the serving stack: an
// HTTP/JSON surface over serve.Server and serve.Store exposing the five
// query kinds, batched queries, live delta application, and snapshot
// shipping, with three concerns the library layer deliberately does not
// own:
//
//   - admission control: a bounded slot pool sized from the executor pool;
//     requests beyond capacity are shed immediately with 429
//     (reproerr.KindBudgetExceeded) instead of queuing unboundedly, and
//     per-request deadlines arrive via the Request-Timeout header;
//   - observability: per-endpoint request/error/latency instruments plus
//     queue-depth and shed instruments on the same obs.Registry the serve
//     layer writes, exposed on an admin mux (/metrics, /healthz, /readyz).
//
// Every /v1/query serves directly on the server: an sssp answer on a built
// snapshot is one warm tree walk, cheaper than any window that would wait
// to share it. /v1/batch runs as one ServeBatchCtx execution, whose
// duplicate-root dedup answers repeated roots with a single walk.
//
// Everything below the HTTP layer — admission, executor checkout, the warm
// sssp path — stays allocation-free, and so does the response encode: bodies
// are appended by hand into pooled buffers, and written with their
// Content-Length only once encoding succeeded. What still allocates per
// request is the request decode and the answer the server returns.
package gateway

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// Options configures a Gateway. The zero value serves: admission defaults
// to 4× the server's executor pool, and the gateway is uninstrumented.
type Options struct {
	// QueueDepth caps the number of requests admitted at once. Requests
	// beyond it are shed with 429. 0 selects 4× the server's executor pool.
	QueueDepth int
	// DefaultTimeout bounds requests that carry no Request-Timeout header.
	// 0 means no implicit deadline.
	DefaultTimeout time.Duration
	// Metrics attaches the gateway's instrument set. Pass the same registry
	// as the server's so /metrics exposes both layers in one scrape. nil =
	// uninstrumented.
	Metrics *obs.Registry
}

// Gateway is the HTTP front end over one serve.Server. Create with New,
// mount Handler on the serving listener and AdminHandler on the admin
// listener, and Close on shutdown. The gateway starts no goroutines of its
// own.
type Gateway struct {
	srv   *serve.Server
	store *serve.Store
	opts  Options
	slots chan struct{}
	m     *gwMetrics

	// deltaMu serializes the two mutating endpoints (/v1/delta and
	// /v1/snapshot/swap): repairs apply to the snapshot they loaded, so two
	// concurrent repairs would silently drop one delta without it.
	deltaMu sync.Mutex

	draining atomic.Bool
}

// errShed is the preallocated admission rejection — shedding under
// overload must not allocate.
var errShed = reproerr.New("gateway.admit", reproerr.KindBudgetExceeded,
	nil)

// New wraps srv in a Gateway. The server's store (if any) powers /v1/delta
// and /v1/snapshot/swap; a storeless server rejects those endpoints with
// 400.
func New(srv *serve.Server, opts Options) (*Gateway, error) {
	const op = "gateway.New"
	if srv == nil {
		return nil, reproerr.Invalid(op, "nil server")
	}
	if opts.QueueDepth < 0 {
		return nil, reproerr.Invalid(op, "QueueDepth %d must be >= 0", opts.QueueDepth)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 4 * srv.Executors()
	}
	return &Gateway{
		srv:   srv,
		store: srv.Store(),
		opts:  opts,
		slots: make(chan struct{}, opts.QueueDepth),
		m:     newGwMetrics(opts.Metrics),
	}, nil
}

// Close marks the gateway draining: /readyz answers 503 from then on, so a
// load balancer stops routing to it while the HTTP servers drain in-flight
// requests. Close is idempotent.
func (g *Gateway) Close() {
	g.draining.Store(true)
}

// Handler returns the serving mux: the four /v1 endpoints, POST-only.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", g.handleQuery)
	mux.HandleFunc("POST /v1/batch", g.handleBatch)
	mux.HandleFunc("POST /v1/delta", g.handleDelta)
	mux.HandleFunc("POST /v1/snapshot/swap", g.handleSwap)
	return mux
}

// AdminHandler returns the admin mux: Prometheus/JSON metrics (when the
// gateway has a registry), liveness, and readiness.
func (g *Gateway) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	if g.opts.Metrics != nil {
		mux.Handle("/metrics", obs.Handler(g.opts.Metrics))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if g.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
	return mux
}

// admit claims one admission slot, shedding immediately when the pool is
// full — the gateway never queues beyond its configured depth.
func (g *Gateway) admit() error {
	select {
	case g.slots <- struct{}{}:
		g.m.admitted(int64(len(g.slots)))
		return nil
	default:
		g.m.shed.Inc()
		return errShed
	}
}

// done releases an admission slot.
func (g *Gateway) done() {
	<-g.slots
	g.m.released(int64(len(g.slots)))
}

// requestCtx derives the request's execution context: the client's
// connection context bounded by the Request-Timeout header (a Go duration
// like "250ms", or a bare number of seconds), falling back to
// DefaultTimeout. The returned cancel must always be called.
func (g *Gateway) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := g.opts.DefaultTimeout
	if h := r.Header.Get("Request-Timeout"); h != "" {
		d, err := parseRequestTimeout(h)
		if err != nil {
			return nil, nil, err
		}
		timeout = d
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithCancel(r.Context())
	return ctx, cancel, nil
}

// parseRequestTimeout maps a Request-Timeout header value to a positive
// duration. Every malformed value — non-numeric, NaN, ±Inf, zero, negative,
// or out of range — is a typed KindInvalidInput (a 400 on the wire), never
// silently ignored: a zero or negative value accepted here would mint an
// already-expired context and miscount a client mistake as a 504 deadline.
// Values larger than the representable range clamp to the maximum duration
// (semantically "no practical deadline") rather than overflowing into
// platform-defined float→int conversion garbage.
func parseRequestTimeout(h string) (time.Duration, error) {
	const op = "gateway.timeout"
	d, err := time.ParseDuration(h)
	if err != nil {
		secs, serr := strconv.ParseFloat(h, 64)
		if serr != nil || math.IsNaN(secs) || math.IsInf(secs, 0) {
			return 0, reproerr.Invalid(op,
				"invalid Request-Timeout %q: want a positive Go duration or seconds", h)
		}
		if secs >= float64(math.MaxInt64)/float64(time.Second) {
			return math.MaxInt64, nil
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d <= 0 {
		return 0, reproerr.Invalid(op,
			"non-positive Request-Timeout %q: the deadline would already have expired", h)
	}
	return d, nil
}

// handleQuery serves POST /v1/query: one typed query, served directly.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	g.m.requests[epQuery].Inc()
	defer g.m.latency[epQuery].ObserveSince(t0)

	var req QueryRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		g.writeError(w, epQuery, err)
		return
	}
	q, err := req.toQuery()
	if err != nil {
		g.writeError(w, epQuery, err)
		return
	}
	if err := g.admit(); err != nil {
		g.writeError(w, epQuery, err)
		return
	}
	defer g.done()
	ctx, cancel, err := g.requestCtx(r)
	if err != nil {
		g.writeError(w, epQuery, err)
		return
	}
	defer cancel()

	ans, err := g.srv.ServeCtx(ctx, q)
	if err != nil {
		g.writeError(w, epQuery, err)
		return
	}
	g.writeJSON(w, epQuery, answerToResponse(ans))
}

// handleBatch serves POST /v1/batch: the query list runs as one
// ServeBatchCtx execution (one admission slot, one executor checkout), so
// in-batch duplicate-root dedup applies exactly as in the library.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	g.m.requests[epBatch].Inc()
	defer g.m.latency[epBatch].ObserveSince(t0)

	var req BatchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		g.writeError(w, epBatch, err)
		return
	}
	if len(req.Queries) == 0 {
		g.writeError(w, epBatch, reproerr.Invalid("gateway.batch", "empty batch"))
		return
	}
	queries := make([]serve.Query, len(req.Queries))
	for i := range req.Queries {
		q, err := req.Queries[i].toQuery()
		if err != nil {
			g.writeError(w, epBatch, reproerr.Errorf("gateway.batch",
				reproerr.KindInvalidInput, "queries[%d]: %w", i, err))
			return
		}
		queries[i] = q
	}
	if err := g.admit(); err != nil {
		g.writeError(w, epBatch, err)
		return
	}
	defer g.done()
	ctx, cancel, err := g.requestCtx(r)
	if err != nil {
		g.writeError(w, epBatch, err)
		return
	}
	defer cancel()

	answers, err := g.srv.ServeBatchCtx(ctx, queries)
	if err != nil {
		g.writeError(w, epBatch, err)
		return
	}
	resp := BatchResponse{Answers: make([]*QueryResponse, len(answers))}
	for i, a := range answers {
		resp.Answers[i] = answerToResponse(a)
	}
	g.writeJSON(w, epBatch, &resp)
}

// handleDelta serves POST /v1/delta: apply a batch of edge mutations to the
// active snapshot and swap the resulting snapshot in under live traffic.
// Mutations are serialized (deltaMu); queries keep flowing throughout — the
// epoch protocol retires the old snapshot only after its readers drain.
func (g *Gateway) handleDelta(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	g.m.requests[epDelta].Inc()
	defer g.m.latency[epDelta].ObserveSince(t0)

	if g.store == nil {
		g.writeError(w, epDelta, reproerr.Invalid("gateway.delta",
			"server has no store: deltas need a swappable snapshot"))
		return
	}
	var req DeltaRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		g.writeError(w, epDelta, err)
		return
	}
	delta, err := req.toDelta()
	if err != nil {
		g.writeError(w, epDelta, err)
		return
	}
	ctx, cancel, err := g.requestCtx(r)
	if err != nil {
		g.writeError(w, epDelta, err)
		return
	}
	defer cancel()

	g.deltaMu.Lock()
	defer g.deltaMu.Unlock()
	repaired, err := serve.ApplyDelta(ctx, g.store.Snapshot(), delta, serve.DeltaOptions{})
	if err != nil {
		g.writeError(w, epDelta, err)
		return
	}
	repairMs := float64(time.Since(t0)) / float64(time.Millisecond)
	g.store.Swap(repaired)
	resp := DeltaResponse{
		Epoch:      g.store.Epoch(),
		Generation: repaired.Generation(),
		RepairMs:   repairMs,
	}
	if ri := repaired.Repair(); ri != nil {
		resp.Touched = len(ri.Touched)
		resp.Inserted = ri.Inserted
		resp.Deleted = ri.Deleted
		resp.Rechecked = ri.Rechecked
	}
	g.writeJSON(w, epDelta, &resp)
}

// handleSwap serves POST /v1/snapshot/swap: load a persisted snapshot file
// and ship it into the live epoch protocol. The swap is unconditional once
// the file validates; a deadline expiring during the drain wait reports
// success with Drained:false (the retired epoch still had pinned readers).
func (g *Gateway) handleSwap(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	g.m.requests[epSwap].Inc()
	defer g.m.latency[epSwap].ObserveSince(t0)

	if g.store == nil {
		g.writeError(w, epSwap, reproerr.Invalid("gateway.swap",
			"server has no store: snapshot shipping needs a swappable store"))
		return
	}
	var req SwapRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		g.writeError(w, epSwap, err)
		return
	}
	if req.Path == "" {
		g.writeError(w, epSwap, reproerr.Invalid("gateway.swap", "missing snapshot path"))
		return
	}
	lo := serve.LoadOptions{Metrics: g.opts.Metrics}
	if req.Verify != nil && !*req.Verify {
		lo.SkipVerify = true
	}
	if req.Mmap != nil && !*req.Mmap {
		lo.NoMmap = true
	}
	ctx, cancel, err := g.requestCtx(r)
	if err != nil {
		g.writeError(w, epSwap, err)
		return
	}
	defer cancel()

	g.deltaMu.Lock()
	defer g.deltaMu.Unlock()
	retired, err := g.store.SwapFromFileCtx(ctx, req.Path, lo)
	resp := SwapResponse{Drained: err == nil}
	switch k := reproerr.KindOf(err); {
	case err == nil:
		// Fully drained: no query still reads the retired snapshot, so a
		// mapped one can release its file mapping now. Heap snapshots are
		// left to the collector — callers may still hold direct references
		// (a rebuilt-alongside comparison server, say).
		if retired != nil && retired.Mapped() {
			_ = retired.Close()
		}
	case k == reproerr.KindCanceled || k == reproerr.KindDeadline:
		// The swap itself happened — only the drain wait was cut short.
		// The retired epoch keeps draining in the background; its mapping
		// (if any) is intentionally left open for the stragglers.
	default:
		g.writeError(w, epSwap, err)
		return
	}
	resp.Epoch = g.store.Epoch()
	resp.Generation = g.store.Snapshot().Generation()
	g.writeJSON(w, epSwap, &resp)
}

// ssspCore is the below-HTTP hot path the warm benchmark pins at
// 0 allocs/op: admission, executor checkout, and the preallocated-row sssp
// serve, with every gateway-layer write landing on preallocated atomics.
func (g *Gateway) ssspCore(ctx context.Context, dst []float64, src graph.NodeID) ([]float64, error) {
	if err := g.admit(); err != nil {
		return nil, err
	}
	defer g.done()
	return g.srv.ServeSSSPIntoCtx(ctx, dst, src)
}

// writeError renders err as the taxonomy's wire form: status from
// reproerr.HTTPStatus, body carrying the message and machine-readable kind.
func (g *Gateway) writeError(w http.ResponseWriter, ep int, err error) {
	g.m.errors[ep].Inc()
	kind := reproerr.KindOf(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(reproerr.HTTPStatus(kind))
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Kind: kind.String()})
}

// maxPooledBody caps the response buffers bodyPool keeps: a larger one (a
// huge batch, say) is left to the collector rather than pinned in the pool.
const maxPooledBody = 1 << 20

// bodyPool recycles response buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// getBody takes an empty response buffer from the pool.
func getBody() *[]byte {
	bp := bodyPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBody returns bp to the pool unless its buffer grew past maxPooledBody.
func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// appendBody appends body's JSON encoding plus a trailing newline: the
// bytes json.NewEncoder(w).Encode(body) writes. Query and batch responses
// go through the hand-written appender, the other bodies through
// json.Marshal.
func appendBody(buf []byte, body any) ([]byte, error) {
	var err error
	switch b := body.(type) {
	case *QueryResponse:
		buf, err = appendResponse(buf, b)
	case *BatchResponse:
		buf, err = appendBatch(buf, b)
	default:
		var raw []byte
		raw, err = json.Marshal(b)
		buf = append(buf, raw...)
	}
	if err != nil {
		return buf, err
	}
	return append(buf, '\n'), nil
}

// writeJSON renders one 200 body. The body is encoded into a pooled buffer
// before the header goes out, so a body the codec rejects (a NaN distance,
// say) becomes a 500 with an ErrorResponse instead of a 200 with an empty
// body; a success carries its Content-Length.
func (g *Gateway) writeJSON(w http.ResponseWriter, ep int, body any) {
	bp := getBody()
	defer putBody(bp)
	var err error
	if *bp, err = appendBody(*bp, body); err != nil {
		g.writeError(w, ep, reproerr.Errorf("gateway.encode", reproerr.KindUnknown, "encode response: %w", err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp)
}
