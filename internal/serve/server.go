package serve

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/sssp"
)

// ServerOptions configures NewServer.
type ServerOptions struct {
	// Executors is the size of the executor pool — the maximum number of
	// queries in flight at once (further callers block on checkout).
	// 0 selects runtime.GOMAXPROCS(0).
	Executors int
	// Seed derives the per-query deterministic randomness: a query's answer
	// depends only on (snapshot, Seed, query), never on which executor runs
	// it or what runs concurrently. 0 selects 1.
	Seed int64
	// Metrics attaches an observability registry: per-kind latency and
	// queue-wait histograms, executor-pool utilization, coalescing
	// counters, and per-execution trace records. nil (the default) is the
	// uninstrumented server — the hot paths then skip even their clock
	// reads, and both modes keep the CI-enforced 0 allocs/op warm paths
	// (every instrument write is atomic arithmetic on preallocated state).
	Metrics *obs.Registry
	// TraceDepth sizes the registry's query-trace ring on first
	// registration (0 = obs.DefaultTraceDepth). Only meaningful with
	// Metrics; if the registry already has a ring, that ring is shared.
	TraceDepth int
}

// Server answers typed queries from a pool of reusable executor contexts,
// against either one fixed immutable Snapshot (NewServer) or whatever a
// Store currently serves (NewStoreServer). All methods are safe for
// concurrent use.
//
// The snapshot is resolved per query, at executor checkout — never captured
// in the executor or at pool construction. That rule is what makes hot
// swaps safe: an executor is pure scratch space, so a stale executor cannot
// answer against a retired epoch, and one query always sees exactly one
// snapshot from checkout to release (no torn answers across a concurrent
// swap).
type Server struct {
	snap  *Snapshot // fixed-snapshot mode; nil when store-backed
	store *Store    // hot-swap mode; nil when fixed
	opts  ServerOptions
	pool  chan *executor

	m *serveMetrics // nil when ServerOptions.Metrics is nil

	served      [numKinds]atomic.Int64
	batches     atomic.Int64
	batched     atomic.Int64
	coalesceIn  atomic.Int64
	coalesceOut atomic.Int64
}

// executor is one pooled context: every buffer a query needs, owned
// exclusively while checked out (see DESIGN.md ownership rules). Executors
// hold no snapshot state: buffers grow to whatever graph the pinned
// snapshot has, so the pool survives any number of epoch swaps.
type executor struct {
	treeScratch sssp.TreeScratch // warm SSSP root-path stack, O(tree depth)

	// Batch-group scratch (see batch.go): the per-root dedup marks
	// (all-zero outside an active group), each slot's first occurrence of
	// its root, and ServeBatch's source list and answer rows. All are
	// reused — the warm batch path allocates nothing, across any number of
	// epoch swaps.
	rootMark   []int32
	firstSlot  []int32
	batchSrcs  []graph.NodeID
	batchDists [][]float64
}

// lease is one checked-out execution context: the executor plus the
// snapshot pinned for the duration of exactly one query or batch. ep is
// non-nil only in store mode, where it holds the epoch reference that
// delays the snapshot's retirement drain until release. done is the
// caller's prefetched ctx.Done() channel (nil when not cancelable).
type lease struct {
	ex   *executor
	sn   *Snapshot
	ep   *epoch
	done <-chan struct{}
}

// NewServer builds a server over one fixed snapshot.
func NewServer(snap *Snapshot, opts ServerOptions) *Server {
	s := newServer(opts)
	s.snap = snap
	return s
}

// NewStoreServer builds a server that answers every query against the
// store's snapshot current at that query's checkout. The executor pool is
// independent of the store's swap cadence: the same pool serves epoch after
// epoch.
func NewStoreServer(store *Store, opts ServerOptions) *Server {
	s := newServer(opts)
	s.store = store
	return s
}

func newServer(opts ServerOptions) *Server {
	if opts.Executors <= 0 {
		opts.Executors = runtime.GOMAXPROCS(0)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	s := &Server{
		opts: opts,
		pool: make(chan *executor, opts.Executors),
		m:    newServeMetrics(opts.Metrics, opts.TraceDepth, opts.Executors),
	}
	for i := 0; i < opts.Executors; i++ {
		s.pool <- &executor{}
	}
	return s
}

// Snapshot returns the snapshot queries are currently answered against: the
// fixed one, or the store's active snapshot at the time of the call.
func (s *Server) Snapshot() *Snapshot {
	if s.store != nil {
		return s.store.Snapshot()
	}
	return s.snap
}

// Store returns the backing store, or nil for a fixed-snapshot server.
func (s *Server) Store() *Store { return s.store }

// Seed returns the resolved ServerOptions.Seed (0 resolves to 1).
func (s *Server) Seed() int64 { return s.opts.Seed }

// Executors returns the executor-pool size — the maximum number of queries
// in flight at once. A network front end sizes its admission queue from
// this: requests beyond pool + queue capacity are shed instead of queued
// unboundedly.
func (s *Server) Executors() int { return s.opts.Executors }

// resolve pins the snapshot this lease will serve. In store mode the pin
// holds the epoch open until release; in fixed mode it is free.
func (s *Server) resolve() (sn *Snapshot, ep *epoch) {
	if s.store != nil {
		ep = s.store.pin()
		return ep.snap, ep
	}
	return s.snap, nil
}

func (s *Server) release(l lease) {
	if l.ep != nil {
		l.ep.unpin(true)
	}
	s.pool <- l.ex
	s.m.release()
}

// timedCheckout is checkoutCtx plus queue-wait and utilization accounting
// when metrics are enabled; the uninstrumented server takes checkoutCtx
// directly, with no clock reads.
func (s *Server) timedCheckout(ctx context.Context) (lease, int64, error) {
	if s.m == nil {
		l, err := s.checkoutCtx(ctx)
		return l, 0, err
	}
	t0 := time.Now()
	l, err := s.checkoutCtx(ctx)
	wait := time.Since(t0).Nanoseconds()
	if err != nil {
		return l, wait, err
	}
	s.m.checkout(wait)
	return l, wait, nil
}

// checkoutCtx waits for a free executor or for the context, then pins the
// current snapshot: a canceled caller stops occupying the pool queue, and
// the pool stays fully usable for the next query (cancellation never loses
// an executor — only a checked-out executor is ever released, and release
// is unconditional on every serve path). The epoch pin happens after the
// executor is obtained, so a caller blocked on a busy pool never holds an
// old epoch open. A nil/Background ctx takes the fast path.
func (s *Server) checkoutCtx(ctx context.Context) (lease, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil {
		ex := <-s.pool
		sn, ep := s.resolve()
		return lease{ex: ex, sn: sn, ep: ep}, nil
	}
	select { // already canceled: fail before consuming pool capacity
	case <-done:
		return lease{}, reproerr.FromContext("serve", ctx.Err())
	default:
	}
	select {
	case ex := <-s.pool:
		sn, ep := s.resolve()
		return lease{ex: ex, sn: sn, ep: ep, done: done}, nil
	case <-done:
		return lease{}, reproerr.FromContext("serve", ctx.Err())
	}
}

// queryRng derives the deterministic randomness of one query from the server
// seed, the query kind, and a kind-specific payload (splitmix-style mixing).
func (s *Server) queryRng(kind Kind, payload int64) *rand.Rand {
	h := uint64(s.opts.Seed) ^ (uint64(kind)+1)*0x9E3779B97F4A7C15 ^ uint64(payload)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0x94D049BB133111EB
	h ^= h >> 27
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// Serve answers one query. The answer is deterministic: independent of the
// executor that runs it, of concurrent queries, and of pool/worker settings.
func (s *Server) Serve(q Query) (Answer, error) { return s.ServeCtx(nil, q) }

// ServeCtx is Serve with cooperative cancellation: the context gates the
// executor checkout (a canceled caller never blocks on a busy pool) and is
// threaded into the query's scheduled/simulated phases, which check it at
// round granularity. A nil ctx behaves like context.Background.
func (s *Server) ServeCtx(ctx context.Context, q Query) (Answer, error) {
	a, err := s.serveOne(ctx, q)
	if err != nil {
		return nil, err
	}
	s.served[a.answerKind()].Add(1)
	return a, nil
}

// serveOne checks out a lease, executes one query on it, and releases it,
// without touching the serving counters (Serve and ServeBatch count
// delivered answers).
func (s *Server) serveOne(ctx context.Context, q Query) (Answer, error) {
	if q == nil {
		return nil, reproerr.Invalid("serve", "nil query")
	}
	l, wait, err := s.timedCheckout(ctx)
	if err != nil {
		return nil, err
	}
	defer s.release(l)
	t0 := s.m.nowIf()
	a, err := s.serveOn(ctx, l, q)
	s.m.record(q.queryKind(), l, 1, wait, s.m.sinceNs(t0), err)
	return a, err
}

// serveOn executes one query against the lease's pinned snapshot.
// Every read of serving state goes through l.sn — never through the
// server's construction-time fields — so the answer is internally
// consistent even if the store swaps mid-query.
func (s *Server) serveOn(ctx context.Context, l lease, q Query) (Answer, error) {
	sn := l.sn
	switch q := q.(type) {
	case SSSPQuery:
		out := make([]float64, sn.g.NumNodes())
		dist, err := sn.ti.DistancesInto(out, q.Source, &l.ex.treeScratch)
		if err != nil {
			return nil, err
		}
		return &SSSPAnswer{
			Source: q.Source,
			Dist:   dist,
			Cost:   cost.Cost{Rounds: sn.servRounds, Messages: sn.servMessages},
		}, nil
	case MSTQuery:
		return sn.serveMST(), nil
	case MinCutQuery:
		if err := mincut.CheckEps(q.Eps); err != nil {
			return nil, reproerr.Invalid("serve", "%v", err)
		}
		// The shared mincut.TreesForEps rule keeps the facade's WithEps
		// bit-equivalent.
		trees := mincut.TreesForEps(sn.g.NumNodes(), q.Eps)
		return sn.serveMinCut(ctx, trees, s.queryRng(KindMinCut, int64(trees)))
	case TwoECSSQuery:
		return sn.serveTwoECSS(ctx)
	case QualityQuery:
		return sn.serveQuality(q)
	default:
		return nil, reproerr.Invalid("serve", "unknown query type %T", q)
	}
}

// ServeSSSP answers one warm SSSP query: a weighted walk over the pinned
// snapshot's prebuilt tree index using executor-local scratch, with a fresh
// output slice.
func (s *Server) ServeSSSP(src graph.NodeID) (*SSSPAnswer, error) {
	a, err := s.serveOne(nil, SSSPQuery{Source: src})
	if err != nil {
		return nil, err
	}
	s.served[KindSSSP].Add(1)
	return a.(*SSSPAnswer), nil
}

// ServeSSSPInto is the allocation-free warm path: distances are written into
// dst (grown to NumNodes, reusing capacity) and returned. With sufficient
// dst capacity and a warm executor the query allocates nothing — the
// property CI's benchmark smoke asserts, including across epoch swaps.
func (s *Server) ServeSSSPInto(dst []float64, src graph.NodeID) ([]float64, error) {
	return s.ServeSSSPIntoCtx(nil, dst, src)
}

// ServeSSSPIntoCtx is ServeSSSPInto with cooperative cancellation gating the
// executor checkout. The context check is one poll of a prefetched channel
// and the epoch pin two atomic operations: the warm path stays
// allocation-free and regression-free (CI's benchmark smoke asserts
// 0 allocs/op on exactly this path).
func (s *Server) ServeSSSPIntoCtx(ctx context.Context, dst []float64, src graph.NodeID) ([]float64, error) {
	l, wait, err := s.timedCheckout(ctx)
	if err != nil {
		return dst, err
	}
	defer s.release(l)
	t0 := s.m.nowIf()
	out, err := l.sn.ti.DistancesInto(dst, src, &l.ex.treeScratch)
	s.m.record(KindSSSP, l, 1, wait, s.m.sinceNs(t0), err)
	if err != nil {
		return out, err
	}
	s.served[KindSSSP].Add(1)
	return out, nil
}

// Stats is a point-in-time snapshot of serving counters.
type Stats struct {
	// Queries counts answered queries per kind (indexable by Kind).
	SSSP, MST, MinCut, TwoECSS, Quality int64
	// Batches counts answered ServeBatch calls; BatchedQueries the queries
	// they carried.
	Batches        int64
	BatchedQueries int64
	// CoalesceIn counts SSSP queries that entered a batched group;
	// CoalesceOut the distinct roots actually walked after duplicate-root
	// coalescing. CoalesceIn - CoalesceOut is the number of queries answered
	// by copying another root's distances — the coalescing hit count.
	CoalesceIn  int64
	CoalesceOut int64
}

// Total returns the total number of answered queries.
func (st Stats) Total() int64 {
	return st.SSSP + st.MST + st.MinCut + st.TwoECSS + st.Quality
}

// Stats returns current serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		SSSP:           s.served[KindSSSP].Load(),
		MST:            s.served[KindMST].Load(),
		MinCut:         s.served[KindMinCut].Load(),
		TwoECSS:        s.served[KindTwoECSS].Load(),
		Quality:        s.served[KindQuality].Load(),
		Batches:        s.batches.Load(),
		BatchedQueries: s.batched.Load(),
		CoalesceIn:     s.coalesceIn.Load(),
		CoalesceOut:    s.coalesceOut.Load(),
	}
}
