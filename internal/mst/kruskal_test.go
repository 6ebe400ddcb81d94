package mst

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sortKruskal is Kruskal over a comparison sort of (weight, EdgeID), the
// order the radix sort must reproduce; it scans every edge, with no early
// stop.
func sortKruskal(g *graph.Graph, w graph.Weights) []graph.EdgeID {
	order := make([]graph.EdgeID, g.NumEdges())
	for e := range order {
		order[e] = graph.EdgeID(e)
	}
	sort.Slice(order, func(i, j int) bool {
		if w[order[i]] != w[order[j]] {
			return w[order[i]] < w[order[j]]
		}
		return order[i] < order[j]
	})
	uf := NewUnionFind(g.NumNodes())
	tree := make([]graph.EdgeID, 0, max(g.NumNodes()-1, 0))
	for _, e := range order {
		u, v := g.EdgeEndpoints(e)
		if uf.Union(u, v) {
			tree = append(tree, e)
		}
	}
	return tree
}

// TestKruskalMatchesSortOrder pins Kruskal and KruskalScratch (one Scratch
// reused across every case, at shrinking and growing sizes) to sortKruskal:
// the same edges in the same order. The weights cover ties, digits every
// key shares, the extremes of the positive range, exponents far apart, a
// forest that never stops early, and a single node.
func TestKruskalMatchesSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	er := gen.ErdosRenyi(400, 0.05, rng)
	pick := func(g *graph.Graph, vals ...float64) graph.Weights {
		w := make(graph.Weights, g.NumEdges())
		for e := range w {
			w[e] = vals[rng.Intn(len(vals))]
		}
		return w
	}
	exponents := make(graph.Weights, er.NumEdges())
	for e := range exponents {
		exponents[e] = math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
	}
	load := make(graph.Weights, er.NumEdges())
	for e := range load {
		load[e] = float64(rng.Intn(20)) + 1 + 0.01*rng.Float64()
	}

	forestB := graph.NewBuilder(300)
	for i := 0; i < 900; i++ {
		u, v := graph.NodeID(rng.Intn(150)), graph.NodeID(rng.Intn(150))
		if i%2 == 1 {
			u, v = u+150, v+150
		}
		forestB.TryAddEdge(u, v)
	}
	forest := forestB.Build()

	cases := []struct {
		name string
		g    *graph.Graph
		w    graph.Weights
	}{
		{"unit", er, graph.NewUnitWeights(er.NumEdges())},
		{"three-values", er, pick(er, 0.5, 2, 3)},
		{"extremes", er, pick(er, math.Inf(1), 5e-324, math.MaxFloat64, 1)},
		{"exponents", er, exponents},
		{"packing-loads", er, load},
		{"uniform", er, graph.NewUniformWeights(er.NumEdges(), rng)},
		{"disconnected", forest, pick(forest, 1, 2, 3, 4)},
		{"single-node", gen.Path(1), graph.Weights{}},
	}
	var scratch Scratch
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := sortKruskal(tc.g, tc.w)
			got, err := Kruskal(tc.g, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Kruskal = %v\nwant %v", got, want)
			}
			got, err = KruskalScratch(tc.g, tc.w, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("KruskalScratch = %v\nwant %v", got, want)
			}
		})
	}
	if graph.IsConnected(forest) {
		t.Fatal("the disconnected case is connected")
	}
}

// TestKruskalTreeIsFresh checks that the returned tree never aliases the
// scratch: a second call on the same Scratch leaves the first tree intact.
func TestKruskalTreeIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.ErdosRenyi(200, 0.08, rng)
	var scratch Scratch
	first, err := KruskalScratch(g, graph.NewUniformWeights(g.NumEdges(), rng), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]graph.EdgeID(nil), first...)
	if _, err := KruskalScratch(g, graph.NewUniformWeights(g.NumEdges(), rng), &scratch); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, keep) {
		t.Error("a second KruskalScratch call changed the first tree")
	}
}
