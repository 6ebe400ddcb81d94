package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/testx"
)

// TestHotSwapStress is the dynamic-serving race test: concurrent mixed-kind
// readers hammer a store-backed server while a writer applies deltas and
// swaps epochs — 100 swaps, each waiting for the retired epoch to drain.
// Every answer must be internally consistent with exactly one epoch of the
// chain (no torn answers), every retired snapshot must provably drain
// (SwapCtx returns nil and Pending ends at 0), no goroutine may leak, and
// the executor pool must remain fully usable afterwards. CI runs this
// package under -race.
func TestHotSwapStress(t *testing.T) {
	defer testx.LeakCheck(t.Fatalf)()

	const swaps = 100
	const nodes = 160
	fx := makeFixture(t, nodes, 77)

	// Precompute the snapshot chain and, per generation, the reference
	// answers readers will match against: the exact SSSP distances from a
	// fixed source and the tree weight that identifies the generation.
	const src = graph.NodeID(3)
	chain := make([]*serve.Snapshot, 0, swaps+1)
	chain = append(chain, fx.snap)
	deltaRng := rand.New(rand.NewSource(123))
	g, w := fx.g, fx.w
	wscale := 1e-3
	for len(chain) <= swaps {
		// Insert-only deltas: always repairable. Each generation's inserted
		// edges are lighter than everything inserted before (halving
		// scale), so every delta displaces a tree edge — every generation
		// has a distinct MST, which is what lets readers identify the epoch
		// an answer came from.
		wscale *= 0.5
		var d graph.Delta
		for len(d.Insert) < 4 {
			u := graph.NodeID(deltaRng.Intn(nodes))
			v := graph.NodeID(deltaRng.Intn(nodes))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if u > v {
				u, v = v, u
			}
			dup := false
			for _, de := range d.Insert {
				if de.U == u && de.V == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			d.Insert = append(d.Insert, graph.DeltaEdge{U: u, V: v, W: wscale * (1 + deltaRng.Float64())})
		}
		next, err := serve.ApplyDelta(context.Background(), chain[len(chain)-1], d, serve.DeltaOptions{})
		if err != nil {
			t.Fatalf("chain delta %d: %v", len(chain), err)
		}
		g2, w2, _, err := graph.ApplyDelta(g, w, d)
		if err != nil {
			t.Fatal(err)
		}
		g, w = g2, w2
		chain = append(chain, next)
	}
	// Identify the epoch an answer came from by tree-slice identity: an
	// MSTAnswer shares its snapshot's tree slice, so the address of its
	// first element names the generation exactly (no reliance on weights
	// being numerically distinct).
	wantDist := make([][]float64, len(chain))
	treeToGen := make(map[*graph.EdgeID]int, len(chain))
	for gi, sn := range chain {
		wantDist[gi] = referenceTreeDist(sn.Graph(), sn.Weights(), sn.Tree(), src)
		tree := sn.Tree()
		if len(tree) == 0 {
			t.Fatalf("generation %d: empty tree", gi)
		}
		if prev, dup := treeToGen[&tree[0]]; dup {
			t.Fatalf("generations %d and %d share a tree slice", prev, gi)
		}
		treeToGen[&tree[0]] = gi
	}

	store := serve.NewStore(chain[0])
	srv := serve.NewStoreServer(store, serve.ServerOptions{Executors: 3, Seed: 5})

	var served atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup

	// Readers: batches pairing an MST query (identifies the epoch) with an
	// SSSP query — a torn answer (SSSP from one epoch, MST from another, or
	// distances mixing two trees) cannot match any single generation.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				answers, err := srv.ServeBatch([]serve.Query{serve.MSTQuery{}, serve.SSSPQuery{Source: src}})
				if err != nil {
					errs <- fmt.Errorf("reader %d it %d: %w", r, it, err)
					return
				}
				mst := answers[0].(*serve.MSTAnswer)
				sssp := answers[1].(*serve.SSSPAnswer)
				if len(mst.Tree) == 0 {
					errs <- fmt.Errorf("reader %d it %d: empty MST answer", r, it)
					return
				}
				gi, ok := treeToGen[&mst.Tree[0]]
				if !ok {
					errs <- fmt.Errorf("reader %d it %d: MST answer matches no generation (torn?)", r, it)
					return
				}
				for v := range sssp.Dist {
					if sssp.Dist[v] != wantDist[gi][v] {
						errs <- fmt.Errorf("reader %d it %d: dist[%d] = %v, want %v (generation %d) — torn answer",
							r, it, v, sssp.Dist[v], wantDist[gi][v], gi)
						return
					}
				}
				served.Add(1)
			}
		}(r)
	}

	// Writer: swap through the chain, paced so every epoch overlaps live
	// reader traffic (an unpaced writer finishes its hundred swaps before
	// the scheduler ever runs a reader). Most swaps are non-blocking —
	// several retired epochs drain concurrently, the harder case — and
	// every tenth uses SwapCtx to prove drains complete under load.
	for gi := 1; gi < len(chain); gi++ {
		before := served.Load()
		if gi%10 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, err := store.SwapCtx(ctx, chain[gi])
			cancel()
			if err != nil {
				close(stop)
				t.Fatalf("swap %d: drain did not complete: %v", gi, err)
			}
		} else {
			store.Swap(chain[gi])
		}
		// Sleep-paced wait for one answer against the new epoch: on a
		// single-CPU box a spin-yield loop is starved by the hot readers,
		// while timer wakeups are scheduled promptly.
		for deadline := time.Now().Add(100 * time.Millisecond); served.Load() == before &&
			time.Now().Before(deadline) && len(errs) == 0; {
			time.Sleep(200 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if store.Swaps() != swaps {
		t.Fatalf("swaps = %d, want %d", store.Swaps(), swaps)
	}
	// With the readers quiesced, every retired epoch must drain.
	for deadline := time.Now().Add(5 * time.Second); store.Pending() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("pending retired epochs = %d after readers quiesced", store.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if served.Load() == 0 {
		t.Fatal("no reader answer overlapped the swap storm")
	}

	// The pool must be fully reusable after 100 swaps: one query of every
	// kind against the final epoch.
	if store.Epoch() != swaps+1 {
		t.Fatalf("epoch = %d, want %d", store.Epoch(), swaps+1)
	}
	final := chain[len(chain)-1]
	for _, q := range []serve.Query{
		serve.SSSPQuery{Source: src}, serve.MSTQuery{}, serve.MinCutQuery{}, serve.QualityQuery{Part: 0},
	} {
		a, err := srv.Serve(q)
		if err != nil {
			t.Fatalf("post-storm %T: %v", q, err)
		}
		if m, ok := a.(*serve.MSTAnswer); ok && &m.Tree[0] != &final.Tree()[0] {
			t.Fatal("post-storm MST answered against a retired epoch")
		}
	}
	if srv.Snapshot() != final {
		t.Fatal("server does not resolve the store's final snapshot")
	}
}
