package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestConcurrentServeStress fires mixed query kinds at one Server from many
// goroutines and asserts every answer is bit-identical to its
// single-threaded counterpart — the serving layer's core guarantee. CI runs
// this package under -race.
func TestConcurrentServeStress(t *testing.T) {
	fx := makeFixture(t, 500, 42)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 4, Seed: 7})

	queries := []serve.Query{
		serve.SSSPQuery{Source: 0},
		serve.SSSPQuery{Source: 123},
		serve.SSSPQuery{Source: 499},
		serve.MSTQuery{},
		serve.MinCutQuery{},
		serve.MinCutQuery{Eps: 0.5},
		serve.TwoECSSQuery{},
		serve.QualityQuery{Part: 0},
		serve.QualityQuery{Part: 7},
	}

	// Single-threaded ground truth, computed before any concurrency.
	want := make([]serve.Answer, len(queries))
	for i, q := range queries {
		a, err := srv.Serve(q)
		if err != nil {
			t.Fatalf("single-threaded query %d: %v", i, err)
		}
		want[i] = a
	}

	assertEqual := func(i int, got serve.Answer) error {
		switch w := want[i].(type) {
		case *serve.SSSPAnswer:
			g := got.(*serve.SSSPAnswer)
			if g.Source != w.Source {
				return fmt.Errorf("source %d vs %d", g.Source, w.Source)
			}
			for v := range w.Dist {
				if g.Dist[v] != w.Dist[v] {
					return fmt.Errorf("dist[%d] %v vs %v", v, g.Dist[v], w.Dist[v])
				}
			}
		case *serve.MSTAnswer:
			g := got.(*serve.MSTAnswer)
			if g.Weight != w.Weight || len(g.Tree) != len(w.Tree) {
				return fmt.Errorf("MST %v/%d vs %v/%d", g.Weight, len(g.Tree), w.Weight, len(w.Tree))
			}
		case *serve.MinCutAnswer:
			g := got.(*serve.MinCutAnswer)
			if g.Value != w.Value || g.Trees != w.Trees || len(g.Side) != len(w.Side) {
				return fmt.Errorf("mincut %+v vs %+v", g, w)
			}
			for j := range w.Side {
				if g.Side[j] != w.Side[j] {
					return fmt.Errorf("mincut side[%d] %d vs %d", j, g.Side[j], w.Side[j])
				}
			}
		case *serve.TwoECSSAnswer:
			g := got.(*serve.TwoECSSAnswer)
			if g.Weight != w.Weight || len(g.Edges) != len(w.Edges) {
				return fmt.Errorf("2ecss %v/%d vs %v/%d", g.Weight, len(g.Edges), w.Weight, len(w.Edges))
			}
			for j := range w.Edges {
				if g.Edges[j] != w.Edges[j] {
					return fmt.Errorf("2ecss edge[%d] %d vs %d", j, g.Edges[j], w.Edges[j])
				}
			}
		case *serve.QualityAnswer:
			g := got.(*serve.QualityAnswer)
			if *g != *w {
				return fmt.Errorf("quality %+v vs %+v", g, w)
			}
		default:
			return fmt.Errorf("unexpected answer type %T", want[i])
		}
		return nil
	}

	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			if gi%4 == 3 {
				// Every fourth goroutine submits batches instead of singles.
				for it := 0; it < iters/2; it++ {
					answers, err := srv.ServeBatch(queries)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d batch %d: %w", gi, it, err)
						return
					}
					for i := range queries {
						if err := assertEqual(i, answers[i]); err != nil {
							errs <- fmt.Errorf("goroutine %d batch %d query %d: %w", gi, it, i, err)
							return
						}
					}
				}
				return
			}
			for it := 0; it < iters; it++ {
				i := (gi + it) % len(queries)
				a, err := srv.Serve(queries[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", gi, it, err)
					return
				}
				if err := assertEqual(i, a); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d query %d: %w", gi, it, i, err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.Total() == int64(len(queries)) {
		t.Fatal("stress did not serve anything beyond the ground truth pass")
	}
}

// TestConcurrentSSSPIntoStress hammers the allocation-free warm path from
// many goroutines, each with its own destination buffer.
func TestConcurrentSSSPIntoStress(t *testing.T) {
	fx := makeFixture(t, 400, 43)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 3})
	sources := []int32{0, 50, 150, 399}
	want := make(map[int32][]float64)
	for _, src := range sources {
		out, err := srv.ServeSSSPInto(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		want[src] = out
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for gi := 0; gi < 6; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			dst := make([]float64, fx.g.NumNodes())
			for it := 0; it < 20; it++ {
				src := sources[(gi+it)%len(sources)]
				out, err := srv.ServeSSSPInto(dst, src)
				if err != nil {
					errs <- err
					return
				}
				dst = out
				for v := range out {
					if out[v] != want[src][v] {
						errs <- fmt.Errorf("goroutine %d src %d: dist[%d] %v vs %v", gi, src, v, out[v], want[src][v])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
