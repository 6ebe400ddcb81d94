package mst_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
)

// TestBoruvkaMatchesDistributed pins the centralized mirror bit-for-bit
// against the simulated distributed construction — same tree edges, same
// append order, same summed weight — across graph families, sizes and seeds.
// This is the equivalence the dynamic snapshot path relies
// on: a repaired snapshot derives its tree from the mirror, a from-scratch
// rebuild from the simulation.
func TestBoruvkaMatchesDistributed(t *testing.T) {
	type tc struct {
		name string
		make func(n int, rng *rand.Rand) (*graph.Graph, error)
	}
	cases := []tc{
		{"cluster-chain", func(n int, rng *rand.Rand) (*graph.Graph, error) { return gen.ClusterChain(n, 6, rng) }},
		{"erdos-renyi", func(n int, rng *rand.Rand) (*graph.Graph, error) {
			for {
				g := gen.ErdosRenyi(n, 6/float64(n), rng)
				if graph.IsConnected(g) {
					return g, nil
				}
			}
		}},
		{"dumbbell", func(n int, rng *rand.Rand) (*graph.Graph, error) { return gen.Dumbbell(n/8, 4), nil }},
	}
	for _, c := range cases {
		for _, n := range []int{60, 400} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, err := c.make(n, rng)
				if err != nil {
					t.Fatalf("%s n=%d: %v", c.name, n, err)
				}
				w := graph.NewUniformWeights(g.NumEdges(), rng)
				dres, err := mst.Distributed(g, w, mst.DistOptions{Rng: rng, LogFactor: 0.3})
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: distributed: %v", c.name, n, seed, err)
				}
				tree, weight, err := mst.BoruvkaMirror(g, w)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: mirror: %v", c.name, n, seed, err)
				}
				if len(tree) != len(dres.Tree) {
					t.Fatalf("%s n=%d seed=%d: tree sizes %d vs %d", c.name, n, seed, len(tree), len(dres.Tree))
				}
				for i := range tree {
					if tree[i] != dres.Tree[i] {
						t.Fatalf("%s n=%d seed=%d: tree[%d] = %d vs %d (order or content drift)",
							c.name, n, seed, i, tree[i], dres.Tree[i])
					}
				}
				if weight != dres.Weight {
					t.Fatalf("%s n=%d seed=%d: weight %v vs %v", c.name, n, seed, weight, dres.Weight)
				}
			}
		}
	}
}

// TestBoruvkaMatchesKruskalWeight cross-checks optimality against the
// classical algorithm (same total weight; edge sets may order differently).
func TestBoruvkaMatchesKruskalWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(300, 0.03, rng)
		if graph.IsConnected(g) {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	want, err := mst.Kruskal(g, w)
	if err != nil {
		t.Fatal(err)
	}
	tree, weight, err := mst.BoruvkaMirror(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != len(want) {
		t.Fatalf("tree sizes %d vs %d", len(tree), len(want))
	}
	if math.Abs(weight-w.Total(want)) > 1e-9 {
		t.Fatalf("weights %v vs %v", weight, w.Total(want))
	}
}

// TestBoruvkaForest covers the disconnected (spanning forest) path.
func TestBoruvkaForest(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	w := graph.Weights{1, 2, 3, 4}
	tree, _, err := mst.BoruvkaMirror(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 4 {
		t.Fatalf("forest has %d edges, want 4", len(tree))
	}
}
