package serve_test

// Batched SSSP serving tests: duplicate-root coalescing, the
// allocation-free warm batch path, dedup state across a failed batch, and
// a concurrent walk-batch stress (run under -race in CI).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// batchSources builds k sources cycling over the graph with deliberate
// duplicates (every 7th repeats the first).
func batchSources(n, k int) []graph.NodeID {
	srcs := make([]graph.NodeID, k)
	for i := range srcs {
		srcs[i] = graph.NodeID((i * 13) % n)
		if i%7 == 3 {
			srcs[i] = srcs[0]
		}
	}
	return srcs
}

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

// TestServeSSSPBatchInto pins the warm batch path: buffer reuse, duplicate
// coalescing, agreement with the single-query walk, and counters.
func TestServeSSSPBatchInto(t *testing.T) {
	fx := makeFixture(t, 300, 35)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	n := fx.g.NumNodes()
	srcs := batchSources(n, 70)

	dst := make([][]float64, len(srcs))
	for i := range dst {
		dst[i] = make([]float64, n)
	}
	out, err := srv.ServeSSSPBatchInto(dst, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(srcs) || &out[0][0] != &dst[0][0] {
		t.Fatal("ServeSSSPBatchInto did not reuse the destination buffers")
	}
	single := make([]float64, n)
	for i, s := range srcs {
		single, err = srv.ServeSSSPInto(single, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range single {
			if out[i][v] != single[v] {
				t.Fatalf("slot %d (src %d): dist[%d] batched %v vs single %v", i, s, v, out[i][v], single[v])
			}
		}
	}
	if empty, err := srv.ServeSSSPBatchInto(out, nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %d rows, err %v", len(empty), err)
	}
	st := srv.Stats()
	if st.Batches != 1 || st.BatchedQueries != int64(len(srcs)) {
		t.Fatalf("batch counters: %+v", st)
	}
}

// TestServeSSSPBatchIntoStaleMarks pins the dedup state across a failed
// batch: an out-of-range source fails the whole batch with
// KindInvalidInput after its earlier roots were already marked, and the
// next batch on the same executor must see none of those marks — every
// slot matches its single walk, and each duplicate gets its own row.
func TestServeSSSPBatchIntoStaleMarks(t *testing.T) {
	fx := makeFixture(t, 120, 36)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	if _, err := srv.ServeSSSPBatchInto(nil, []graph.NodeID{5, 9, 5, -1}); reproerr.KindOf(err) != reproerr.KindInvalidInput {
		t.Fatalf("out-of-range source: err %v, want KindInvalidInput", err)
	}
	srcs := []graph.NodeID{5, 9, 5}
	out, err := srv.ServeSSSPBatchInto(nil, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0][0] == &out[2][0] {
		t.Fatal("duplicate slots share one row")
	}
	for i, s := range srcs {
		single, err := srv.ServeSSSPInto(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range single {
			if out[i][v] != single[v] {
				t.Fatalf("slot %d (src %d): dist[%d] batched %v vs single %v", i, s, v, out[i][v], single[v])
			}
		}
	}
	if st := srv.Stats(); st.Batches != 1 || st.CoalesceIn != 3 || st.CoalesceOut != 2 {
		t.Fatalf("counters after one failed and one good batch: %+v", st)
	}
}

// TestServeSSSPBatchIntoAllocs pins the 0 allocs/op property of the warm
// batch path — the CI bench smoke's assertion, as a plain test.
func TestServeSSSPBatchIntoAllocs(t *testing.T) {
	fx := makeFixture(t, 400, 37)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	srcs := batchSources(fx.g.NumNodes(), 64)
	dst := make([][]float64, len(srcs))
	for i := range dst {
		dst[i] = make([]float64, fx.g.NumNodes())
	}
	var err error
	for i := 0; i < 2; i++ { // warm executor scratch
		if dst, err = srv.ServeSSSPBatchInto(dst, srcs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if dst, err = srv.ServeSSSPBatchInto(dst, srcs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ServeSSSPBatchInto allocates %v per run, want 0", allocs)
	}
}

// TestServeBatchWalkStress hammers one snapshot with concurrent batches on
// a plain server and an instrumented one (shared snapshot, disjoint
// executor pools), mixing ServeBatch and ServeSSSPBatchInto and verifying
// every answer against the reference. The CI -race leg runs this to pin
// the executors' scratch ownership under real concurrency.
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
			var rows [][]float64
			for it := 0; it < iters; it++ {
				srv := servers[(gi+it)%2]
				batch := 60 + (gi*17+it*31)%20
				srcs := make([]graph.NodeID, batch)
				for i := range srcs {
					srcs[i] = graph.NodeID((gi*89 + it*53 + i*7) % n)
				}
				got := make([][]float64, batch)
				if it%2 == 0 {
					ans, err := srv.ServeBatch(ssspBatch(srcs))
					if err != nil {
						errs <- fmt.Errorf("g%d it%d: %w", gi, it, err)
						return
					}
					for i := range ans {
						got[i] = ans[i].(*serve.SSSPAnswer).Dist
					}
				} else {
					var err error
					if rows, err = srv.ServeSSSPBatchInto(rows, srcs); err != nil {
						errs <- fmt.Errorf("g%d it%d: %w", gi, it, err)
						return
					}
					copy(got, rows)
				}
				for i, s := range srcs {
					for v := range got[i] {
						if got[i][v] != want[s][v] {
							errs <- fmt.Errorf("g%d it%d src %d: dist[%d]=%v, want %v", gi, it, s, v, got[i][v], want[s][v])
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
