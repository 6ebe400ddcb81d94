// Serving: build one immutable Snapshot (shortcuts + shortcut-MST), then
// answer the whole application family — SSSP, MST, min cut, 2-ECSS, quality
// — concurrently from a pooled Server, including a batched submission that
// walks each distinct SSSP root once on one executor.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()

	const diameter = 6
	g, err := repro.ClusterChain(20_000, diameter, rng)
	if err != nil {
		return err
	}
	w := repro.UniformWeights(g, rng)
	parts, err := repro.VoronoiParts(g, 48, rng)
	if err != nil {
		return err
	}

	// Pay the construction once — context-first, so a serving process can
	// bound or abort the cold build (a canceled build returns within one
	// simulated round with errors.Is(err, context.Canceled) == true).
	snap, err := repro.NewSnapshotCtx(ctx, g, w, parts,
		repro.WithSeed(1), repro.WithDiameter(diameter), repro.WithSamplingBoost(0.3))
	if err != nil {
		return err
	}
	bc := snap.Cost()
	fmt.Printf("snapshot: built in %v (simulated: %d rounds, %d messages, %d MST phases)\n",
		bc.Wall.Round(time.Millisecond), bc.Rounds, bc.Messages, snap.Phases())
	fmt.Printf("snapshot: quality %v, MST weight %.1f\n", snap.Quality(), snap.TreeWeight())

	srv, err := repro.NewServerV2(snap, repro.WithExecutors(4))
	if err != nil {
		return err
	}
	start := time.Now()

	// Concurrent single queries: every answer is deterministic and
	// bit-identical to its single-threaded counterpart.
	start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src := repro.NodeID((c*100 + i) % g.NumNodes())
				if _, err := srv.ServeCtx(ctx, repro.SSSPQuery{Source: src}); err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("serve: 400 SSSP queries from 4 clients in %v\n",
		time.Since(start).Round(time.Millisecond))

	// A mixed batch on one executor and one pinned snapshot. The batch
	// context is checked between SSSP walks and by the scheduled phases of
	// the other kinds, so a canceled client aborts promptly and leaves the
	// executor pool untouched for other clients.
	answers, err := srv.ServeBatchCtx(ctx, []repro.ServeQuery{
		repro.SSSPQuery{Source: 0},
		repro.SSSPQuery{Source: 7},
		repro.SSSPQuery{Source: 42},
		repro.MSTQuery{},
		repro.MinCutQuery{},
		repro.QualityQuery{Part: 0},
	})
	if err != nil {
		return err
	}
	sssp := answers[0].(*repro.SSSPAnswer)
	fmt.Printf("batch: sssp(0) charged %d rounds, %d messages\n", sssp.Rounds, sssp.Messages)
	mc := answers[4].(*repro.MinCutAnswer)
	fmt.Printf("batch: min cut %.4g (%d packed trees, MST as tree #1)\n", mc.Value, mc.Trees)
	qa := answers[5].(*repro.QualityAnswer)
	fmt.Printf("batch: part 0 quality %v\n", qa.Quality)

	// Query kinds whose preconditions the workload violates fail cleanly,
	// per query: a cluster chain has bridge edges, so no 2-ECSS exists.
	if _, err := srv.Serve(repro.TwoECSSQuery{}); err != nil {
		fmt.Printf("serve: 2-ECSS correctly refused: %v\n", err)
	}

	// Dynamic update: absorb an edge delta by a seeded rebuild that skips
	// the simulated MST and re-measures only the touched parts' dilation
	// (the result is bit-identical to rebuilding from scratch on the mutated
	// graph, at a fraction of the cost) and hot-swap it under live traffic
	// through a Store. Queries pin their epoch at checkout, so the swap
	// never tears an in-flight answer; SwapCtx returns once the old epoch
	// has drained.
	store := repro.NewStore(snap)
	ssrv, err := repro.NewStoreServerV2(store, repro.WithExecutors(4))
	if err != nil {
		return err
	}
	delta := repro.Delta{Insert: []repro.DeltaEdge{
		{U: 11, V: 4093, W: 0.01},
		{U: 2048, V: 9999, W: 0.02},
	}}
	updStart := time.Now()
	next, err := repro.ApplyDeltaCtx(ctx, store.Snapshot(), delta)
	if err != nil {
		return err
	}
	fmt.Printf("delta: %d parts touched in %v (generation %d; cold build was %v)\n",
		len(next.Repair().Touched), time.Since(updStart).Round(time.Millisecond),
		next.Generation(), bc.Wall.Round(time.Millisecond))
	if _, err := store.SwapCtx(ctx, next); err != nil {
		return err
	}
	a, err := ssrv.ServeCtx(ctx, repro.MSTQuery{})
	if err != nil {
		return err
	}
	fmt.Printf("swap: epoch %d live, MST weight now %.1f\n",
		store.Epoch(), a.(*repro.MSTAnswer).Weight)

	fmt.Printf("stats: %+v\n", srv.Stats())
	return nil
}
