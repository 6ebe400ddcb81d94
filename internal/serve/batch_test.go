package serve_test

// Batched SSSP serving tests: duplicate-root coalescing, dedup state
// across a failed batch, the batch distance budget, and a concurrent
// walk-batch stress (run under -race in CI).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

func ssspBatch(srcs []graph.NodeID) []serve.Query {
	qs := make([]serve.Query, len(srcs))
	for i, s := range srcs {
		qs[i] = serve.SSSPQuery{Source: s}
	}
	return qs
}

// TestServeBatchCoalescesDuplicates pins the fan-out: duplicate sources in
// one batch group get answers equal to their first occurrence (same values,
// distinct backing arrays — every answer owns its distances).
func TestServeBatchCoalescesDuplicates(t *testing.T) {
	fx := makeFixture(t, 300, 33)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	srcs := []graph.NodeID{5, 9, 5, 5, 123, 9}
	ans, err := srv.ServeBatch(ssspBatch(srcs))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		a := ans[i].(*serve.SSSPAnswer)
		if a.Source != s {
			t.Fatalf("answer %d: source %d, want %d", i, a.Source, s)
		}
		want := referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), s)
		for v := range want {
			if a.Dist[v] != want[v] {
				t.Fatalf("answer %d (src %d): dist[%d]=%v, reference %v", i, s, v, a.Dist[v], want[v])
			}
		}
		for j := 0; j < i; j++ {
			if srcs[j] == s && &ans[j].(*serve.SSSPAnswer).Dist[0] == &a.Dist[0] {
				t.Fatalf("answers %d and %d share one distance slice", j, i)
			}
		}
	}
	if st := srv.Stats(); st.CoalesceIn != 6 || st.CoalesceOut != 3 {
		t.Fatalf("Stats coalesce = (%d, %d), want (6, 3)", st.CoalesceIn, st.CoalesceOut)
	}
}

// TestServeBatchStaleMarks pins the dedup state across a failed batch:
// an out-of-range source fails the whole batch with KindInvalidInput after
// walkSSSPGroup already marked its earlier roots, and the next batch on the
// same executor must see none of those marks — every answer matches its
// single walk, each duplicate owns its row, and the counters show one
// answered batch of three queries over two distinct roots.
func TestServeBatchStaleMarks(t *testing.T) {
	fx := makeFixture(t, 120, 36)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	if _, err := srv.ServeBatch(ssspBatch([]graph.NodeID{5, 9, 5, -1})); reproerr.KindOf(err) != reproerr.KindInvalidInput {
		t.Fatalf("out-of-range source: err %v, want KindInvalidInput", err)
	}
	srcs := []graph.NodeID{5, 9, 5}
	ans, err := srv.ServeBatch(ssspBatch(srcs))
	if err != nil {
		t.Fatal(err)
	}
	if &ans[0].(*serve.SSSPAnswer).Dist[0] == &ans[2].(*serve.SSSPAnswer).Dist[0] {
		t.Fatal("duplicate answers share one row")
	}
	for i, s := range srcs {
		single, err := srv.ServeSSSPInto(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		dist := ans[i].(*serve.SSSPAnswer).Dist
		for v := range single {
			if dist[v] != single[v] {
				t.Fatalf("slot %d (src %d): dist[%d] batched %v vs single %v", i, s, v, dist[v], single[v])
			}
		}
	}
	if st := srv.Stats(); st.Batches != 1 || st.CoalesceIn != 3 || st.CoalesceOut != 2 {
		t.Fatalf("counters after one failed and one good batch: %+v", st)
	}
}

// TestServeBatchBudget pins the library batch budget: a ServeBatchCtx whose
// sssp queries, duplicate roots included, would hold more than
// serve.MaxBatchDists distances is refused with KindBudgetExceeded before
// the executor checkout (no counter moves and no executor is checked out),
// and the next batch is served.
func TestServeBatchBudget(t *testing.T) {
	fx := makeFixture(t, 200, 5)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1, Metrics: reg})
	queries := make([]serve.Query, serve.MaxBatchDists/fx.g.NumNodes()+1)
	for i := range queries {
		queries[i] = serve.SSSPQuery{Source: 0}
	}
	before := srv.Stats()
	if _, err := srv.ServeBatchCtx(context.Background(), queries); reproerr.KindOf(err) != reproerr.KindBudgetExceeded {
		t.Fatalf("%d-row batch: err %v, want KindBudgetExceeded", len(queries), err)
	}
	if after := srv.Stats(); after != before {
		t.Fatalf("refused batch moved the server's counters: %+v → %+v", before, after)
	}
	if peak := reg.Gauge("lcs_serve_executors_inflight_peak").Value(); peak != 0 {
		t.Fatalf("lcs_serve_executors_inflight_peak = %d after a refused batch, want 0", peak)
	}
	if _, err := srv.ServeBatchCtx(context.Background(), queries[:2]); err != nil {
		t.Fatalf("batch after the refusal: %v", err)
	}
	if st := srv.Stats(); st.Batches != 1 || st.BatchedQueries != 2 {
		t.Fatalf("counters after the refusal and one good batch: %+v", st)
	}
}

// TestServeBatchWalkStress hammers one snapshot with concurrent ServeBatch
// calls on a plain server and an instrumented one (shared snapshot,
// disjoint executor pools), verifying every answer against the reference.
// The CI -race leg runs this to pin the executors' scratch ownership under
// real concurrency.
func TestServeBatchWalkStress(t *testing.T) {
	fx := makeFixture(t, 240, 39)
	servers := []*serve.Server{
		serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2}),
		serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2, Metrics: obs.New()}),
	}
	n := fx.g.NumNodes()
	want := make([][]float64, n)
	for v := 0; v < n; v++ {
		want[v] = referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), graph.NodeID(v))
	}

	const goroutines = 4
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				srv := servers[(gi+it)%2]
				batch := 60 + (gi*17+it*31)%20
				srcs := make([]graph.NodeID, batch)
				for i := range srcs {
					srcs[i] = graph.NodeID((gi*89 + it*53 + i*7) % n)
				}
				ans, err := srv.ServeBatch(ssspBatch(srcs))
				if err != nil {
					errs <- fmt.Errorf("g%d it%d: %w", gi, it, err)
					return
				}
				for i, s := range srcs {
					got := ans[i].(*serve.SSSPAnswer).Dist
					for v := range got {
						if got[v] != want[s][v] {
							errs <- fmt.Errorf("g%d it%d src %d: dist[%d]=%v, want %v", gi, it, s, v, got[v], want[s][v])
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
