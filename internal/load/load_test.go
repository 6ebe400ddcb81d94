package load

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/twoecss"
)

func allEdgeIDs(g *graph.Graph) []graph.EdgeID {
	ids := make([]graph.EdgeID, g.NumEdges())
	for i := range ids {
		ids[i] = graph.EdgeID(i)
	}
	return ids
}

func makeSnapshot(t testing.TB, n int, seed int64) *serve.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// The mix exercises all five kinds including twoecss, so the fixture must
	// be 2-edge-connected (the E13/gateway fixture idiom). Updates only ever
	// insert edges, which cannot create bridges.
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, math.Max(0.01, 8/float64(n)), rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdgeIDs(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{Rng: rng, Diameter: 6, LogFactor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

var testParams = Params{
	Rate:       300,
	Duration:   400 * time.Millisecond,
	Zipf:       1.5,
	UpdateRate: 10,
	Seed:       7,
}

// TestScheduleDeterminism pins the package's core contract: the same seed
// yields the identical schedule — arrival instants, kind sequence, roots,
// update instants, and delta contents — across builds, while a different
// seed diverges. The schedule carries no backend reference at all, so
// backend choice cannot perturb it by construction.
func TestScheduleDeterminism(t *testing.T) {
	snap := makeSnapshot(t, 300, 1)

	a, err := BuildSchedule(testParams, snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(testParams, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed produced different event schedules")
	}
	if !reflect.DeepEqual(a.Updates, b.Updates) {
		t.Fatal("same seed produced different update schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("empty schedule")
	}

	p2 := testParams
	p2.Seed = 8
	c, err := BuildSchedule(p2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}

	// Arrivals are sorted and inside the horizon.
	prev := time.Duration(-1)
	for _, ev := range a.Events {
		if ev.At <= prev || ev.At >= testParams.Duration {
			t.Fatalf("arrival %v out of order or horizon (prev %v)", ev.At, prev)
		}
		prev = ev.At
	}

	// The kind mix follows DefaultMix: sssp dominates.
	counts := a.KindCounts()
	if counts["sssp"] < len(a.Events)/2 {
		t.Fatalf("sssp count %d under the default 90%% mix of %d events", counts["sssp"], len(a.Events))
	}

	// Zipf skew concentrates sssp roots: with s=1.5 the single hottest root
	// must absorb far more than a uniform draw's share.
	rootCount := map[graph.NodeID]int{}
	total := 0
	for _, ev := range a.Events {
		if q, ok := ev.Query.(serve.SSSPQuery); ok {
			rootCount[q.Source]++
			total++
		}
	}
	hottest := 0
	for _, c := range rootCount {
		if c > hottest {
			hottest = c
		}
	}
	if hottest*20 < total {
		t.Fatalf("zipf 1.5: hottest root has %d of %d sssp draws — looks uniform", hottest, total)
	}

	// Uniform (zipf ≤ 1) must NOT concentrate like that.
	p3 := testParams
	p3.Zipf = 0
	u, err := BuildSchedule(p3, snap)
	if err != nil {
		t.Fatal(err)
	}
	uCount := map[graph.NodeID]int{}
	uTotal, uHot := 0, 0
	for _, ev := range u.Events {
		if q, ok := ev.Query.(serve.SSSPQuery); ok {
			uCount[q.Source]++
			uTotal++
		}
	}
	for _, c := range uCount {
		if c > uHot {
			uHot = c
		}
	}
	if uHot*20 >= uTotal {
		t.Fatalf("zipf 0: hottest root has %d of %d sssp draws — unexpectedly skewed", uHot, uTotal)
	}

	// Updates: insert-only, bounded, with strictly lightening weights.
	if len(a.Updates) == 0 {
		t.Fatal("no updates scheduled at rate 10 over 400ms? (expected a few)")
	}
	maxW := 1e-3
	for i, up := range a.Updates {
		if len(up.Delta.Delete) != 0 || len(up.Delta.Insert) != 4 {
			t.Fatalf("update %d: want 4 insert-only edges, got %+v", i, up.Delta)
		}
		for _, e := range up.Delta.Insert {
			if e.W >= maxW {
				t.Fatalf("update %d: weight %v not under the halving scale %v", i, e.W, maxW)
			}
		}
		maxW /= 2
	}
}

// TestRunLibraryWithUpdates runs the full open loop against the library
// backend with hot swaps racing the queries: everything offered is
// delivered (no saturation at this tiny rate), every update lands, and the
// torn-answer check attributes every answer to a generation.
func TestRunLibraryWithUpdates(t *testing.T) {
	snap := makeSnapshot(t, 300, 2)
	sched, err := BuildSchedule(testParams, snap)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(snap)
	srv := serve.NewStoreServer(store, serve.ServerOptions{Executors: 4, Seed: 5})
	r := &Runner{Schedule: sched, Backend: &LibraryBackend{Srv: srv}, Server: srv}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res, sched)
	if res.UpdatesApplied != len(sched.Updates) {
		t.Fatalf("applied %d updates, want %d", res.UpdatesApplied, len(sched.Updates))
	}
	if res.Generations != len(sched.Updates)+1 {
		t.Fatalf("generations %d, want %d", res.Generations, len(sched.Updates)+1)
	}
	if store.Swaps() != int64(len(sched.Updates)) {
		t.Fatalf("store swaps %d, want %d", store.Swaps(), len(sched.Updates))
	}
}

// TestRunWireWithUpdates drives the identical schedule over the wire — a
// gateway on the same store — with the updater still swapping underneath:
// the wire codec's bit-exact DistVector means attribution works unchanged,
// and zero answers may tear.
func TestRunWireWithUpdates(t *testing.T) {
	snap := makeSnapshot(t, 300, 2)
	sched, err := BuildSchedule(testParams, snap)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewStoreServer(serve.NewStore(snap), serve.ServerOptions{Executors: 4, Seed: 5})
	r := &Runner{Schedule: sched, Backend: wireBackend(t, srv), Server: srv}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res, sched)
	if res.Backend != "wire" {
		t.Fatalf("backend %q, want wire", res.Backend)
	}
	if res.UpdatesApplied != len(sched.Updates) {
		t.Fatalf("applied %d updates, want %d", res.UpdatesApplied, len(sched.Updates))
	}
}

// assertClean is the shared healthy-run assertion: full delivery, balanced
// books, populated histograms, zero torn answers.
func assertClean(t *testing.T, res *Result, sched *Schedule) {
	t.Helper()
	if res.Offered != len(sched.Events) {
		t.Fatalf("offered %d, want %d scheduled", res.Offered, len(sched.Events))
	}
	if res.Delivered != int64(res.Dispatched) || res.Overflow != 0 ||
		res.Shed != 0 || res.Failed != 0 || res.DeadlineExceeded != 0 || res.Canceled != 0 {
		t.Fatalf("unclean run: %+v (failures: %v)", res, res.FailureSample)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.Latency.Count != res.Delivered || res.QueueWait.Count != res.Delivered {
		t.Fatalf("histogram counts (%d, %d) disagree with delivered %d",
			res.Latency.Count, res.QueueWait.Count, res.Delivered)
	}
	if res.Latency.Quantile(0.999) < res.Latency.Quantile(0.5) {
		t.Fatal("p999 below p50")
	}
	if !res.TornChecked || int64(res.Checked) != res.Delivered {
		t.Fatalf("checked %d of %d delivered answers: %+v", res.Checked, res.Delivered, res)
	}
	if res.Torn != 0 {
		t.Fatalf("%d of %d checked answers torn", res.Torn, res.Checked)
	}
}

// wireBackend serves srv through a gateway on a loopback listener, closed
// when the test ends.
func wireBackend(t testing.TB, srv *serve.Server) *WireBackend {
	t.Helper()
	gw, err := gateway.New(srv, gateway.Options{QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		hs.Close()
		gw.Close()
	})
	return NewWireBackend(hs.URL, nil)
}

// corruptFirst passes answers through, except the first of each kind,
// which it alters in one place: one bit of one distance, one tree edge
// dropped, or one number of a whole answer.
type corruptFirst struct {
	Backend
	mu   sync.Mutex
	seen map[string]bool
}

func (c *corruptFirst) Do(ctx context.Context, q serve.Query) (Completion, error) {
	comp, err := c.Backend.Do(ctx, q)
	if err != nil {
		return comp, err
	}
	c.mu.Lock()
	first := !c.seen[kindName(q)]
	c.seen[kindName(q)] = true
	c.mu.Unlock()
	if !first {
		return comp, nil
	}
	switch a := comp.Answer.(type) {
	case *serve.MinCutAnswer:
		b := *a
		b.Value++
		return Completion{Answer: &b}, nil
	case *serve.TwoECSSAnswer:
		b := *a
		b.Weight++
		return Completion{Answer: &b}, nil
	case *serve.QualityAnswer:
		b := *a
		b.Quality.Congestion++
		return Completion{Answer: &b}, nil
	}
	if _, ok := q.(serve.MSTQuery); ok {
		return Completion{TreeEdges: comp.TreeEdges[1:]}, nil
	}
	d := append([]float64(nil), comp.Dist...)
	d[len(d)-1] = math.Nextafter(d[len(d)-1], math.Inf(1))
	return Completion{Dist: d}, nil
}

// TestRunCatchesWrongAnswers pins that the check covers every kind: over a
// fixed-snapshot server, a backend that corrupts the first answer of each
// of the five kinds yields exactly five torn answers, and every other
// delivered answer is checked clean, on both backends.
func TestRunCatchesWrongAnswers(t *testing.T) {
	snap := makeSnapshot(t, 300, 4)
	p := Params{Rate: 100, Duration: 400 * time.Millisecond, Seed: 3,
		Mix: Mix{SSSP: 1, MST: 1, MinCut: 1, TwoECSS: 1, Quality: 1}}
	sched, err := BuildSchedule(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	for kind, c := range sched.KindCounts() {
		if c < 2 {
			t.Fatalf("schedule draws %d %s queries; the test needs two of each kind", c, kind)
		}
	}
	srv := serve.NewServer(snap, serve.ServerOptions{Executors: 4, Seed: 5})
	for _, backend := range []Backend{&LibraryBackend{Srv: srv}, wireBackend(t, srv)} {
		t.Run(backend.Name(), func(t *testing.T) {
			r := &Runner{Schedule: sched, Backend: &corruptFirst{Backend: backend, seen: map[string]bool{}}, Server: srv}
			res, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered != int64(len(sched.Events)) || int64(res.Checked) != res.Delivered {
				t.Fatalf("delivered %d, checked %d of %d events (failures: %v)",
					res.Delivered, res.Checked, len(sched.Events), res.FailureSample)
			}
			if res.Torn != 5 {
				t.Fatalf("%d torn answers, want exactly the 5 corrupted ones", res.Torn)
			}
		})
	}
}

// TestRunCatchesStaleAnswers pins the generation windows: a backend that
// keeps answering from the base snapshot while the store swaps underneath
// it serves answers from outside their windows, and the check counts them
// torn.
func TestRunCatchesStaleAnswers(t *testing.T) {
	snap := makeSnapshot(t, 300, 2)
	sched, err := BuildSchedule(testParams, snap)
	if err != nil {
		t.Fatal(err)
	}
	opts := serve.ServerOptions{Executors: 4, Seed: 5}
	srv := serve.NewStoreServer(serve.NewStore(snap), opts)
	stale := &LibraryBackend{Srv: serve.NewServer(snap, opts)}
	res, err := (&Runner{Schedule: sched, Backend: stale, Server: srv}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdatesApplied == 0 || int64(res.Checked) != res.Delivered {
		t.Fatalf("applied %d updates, checked %d of %d delivered", res.UpdatesApplied, res.Checked, res.Delivered)
	}
	if res.Torn == 0 {
		t.Fatalf("no torn answer among %d served from generation 0 across %d swaps", res.Checked, res.UpdatesApplied)
	}
}

// TestRunCancellation pins the abort path: canceling mid-run returns the
// classified context error plus a partial result, and nothing hangs.
func TestRunCancellation(t *testing.T) {
	snap := makeSnapshot(t, 300, 3)
	p := testParams
	p.Duration = 5 * time.Second // far longer than the test will allow
	p.UpdateRate = 0
	sched, err := BuildSchedule(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(snap)
	srv := serve.NewStoreServer(store, serve.ServerOptions{Executors: 2, Seed: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	r := &Runner{Schedule: sched, Backend: &LibraryBackend{Srv: srv}, Server: srv}
	res, err := r.Run(ctx)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Dispatched >= len(sched.Events) {
		t.Fatalf("cancellation dispatched the whole %d-event schedule", res.Dispatched)
	}
}
