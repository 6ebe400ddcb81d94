// Webgraph: approximate minimum cut on a web-like small-diameter graph.
// The paper's introduction cites the world-wide web (billions of pages,
// diameter ≤ 19) as the motivating topology. We build a scaled-down
// two-community web: each community is a hub-and-spoke cluster with a ring
// and random chords (every page has degree ≥ 3), and the communities are
// joined by a handful of cross links — so the global minimum cut is the
// community boundary. The tree-packing approximation (Corollary 1.2's
// reduction) is compared to the exact Stoer–Wagner value.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildCommunity(b *repro.GraphBuilder, base, size int, rng *rand.Rand) {
	hub := repro.NodeID(base)
	for i := 1; i < size; i++ {
		v := repro.NodeID(base + i)
		// Spoke to the hub, ring to the neighbor, plus one random chord:
		// every page ends with degree ≥ 3.
		if err := b.AddEdge(hub, v); err != nil {
			log.Fatal(err)
		}
		next := repro.NodeID(base + 1 + i%(size-1))
		b.TryAddEdge(v, next)
		// Two random chords: every page ends with degree ≥ 4 w.h.p., above
		// the community boundary, so the boundary is the global minimum cut.
		b.TryAddEdge(v, repro.NodeID(base+1+rng.Intn(size-1)))
		b.TryAddEdge(v, repro.NodeID(base+1+rng.Intn(size-1)))
	}
}

func run() error {
	rng := rand.New(rand.NewSource(11))
	const (
		half       = 350 // exact oracle is O(n^3); keep it tractable
		crossLinks = 4
		totalNodes = 2 * half
	)
	b := repro.NewGraphBuilder(totalNodes)
	buildCommunity(b, 0, half, rng)
	buildCommunity(b, half, half, rng)
	added := 0
	for added < crossLinks {
		u := repro.NodeID(1 + rng.Intn(half-1))
		v := repro.NodeID(half + 1 + rng.Intn(half-1))
		if b.TryAddEdge(u, v) {
			added++
		}
	}
	g := b.Build()
	w := make(repro.Weights, g.NumEdges())
	for e := range w {
		w[e] = 1
	}
	fmt.Printf("web-like graph: %v, two communities, %d cross links\n", g, crossLinks)

	exact, side, err := repro.MinCut(g, w)
	if err != nil {
		return err
	}
	fmt.Printf("exact min cut : %.0f (side size %d)\n", exact, len(side))

	res, err := repro.MinCutApproxCtx(context.Background(), g, w,
		repro.WithSeed(11), repro.WithDistributedAccounting(true))
	if err != nil {
		return err
	}
	fmt.Printf("approx cut    : %.0f with %d packed trees (%d rounds, %d messages)\n",
		res.Value, res.Trees, res.Rounds, res.Messages)
	fmt.Printf("ratio         : %.3f (guarantee: <= 2(1+eps) w.h.p.)\n", res.Value/exact)
	return nil
}
