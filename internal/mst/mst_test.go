package mst

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func randomConnected(seed int64, n int, extra float64) (*graph.Graph, graph.Weights) {
	rng := rand.New(rand.NewSource(seed))
	g := gen.ErdosRenyi(n, extra, rng)
	return g, graph.NewUniformWeights(g.NumEdges(), rng)
}

func sortedEdges(edges []graph.EdgeID) []graph.EdgeID {
	out := make([]graph.EdgeID, len(edges))
	copy(out, edges)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameEdgeSet(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortedEdges(a), sortedEdges(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("Count = %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions failed")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union succeeded")
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(2) != uf.Find(3) {
		t.Error("find after union inconsistent")
	}
	if uf.Find(0) == uf.Find(2) {
		t.Error("separate sets merged")
	}
	if uf.Count() != 3 {
		t.Errorf("Count = %d, want 3", uf.Count())
	}
}

func TestKruskalSmallKnown(t *testing.T) {
	// Triangle with weights 1, 2, 3: MST is the two lightest edges.
	g, err := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.Weights{1, 2, 3}
	tree, err := Kruskal(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 2 || w.Total(tree) != 3 {
		t.Errorf("tree = %v (weight %f), want weight 3", tree, w.Total(tree))
	}
}

func TestKruskalPrimBoruvkaAgree(t *testing.T) {
	check := func(seed int64) bool {
		g, w := randomConnected(seed, 60, 0.06)
		k, err := Kruskal(g, w)
		if err != nil {
			return false
		}
		p, err := Prim(g, w)
		if err != nil {
			return false
		}
		b, _, err := BoruvkaMirror(g, w)
		if err != nil {
			return false
		}
		return sameEdgeSet(k, p) && sameEdgeSet(k, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKruskalSpanningForest(t *testing.T) {
	// Two components: result must be a spanning forest with n-2 edges.
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	w := graph.NewUnitWeights(g.NumEdges())
	tree, err := Kruskal(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 4 {
		t.Errorf("forest edges = %d, want 4", len(tree))
	}
}

func TestBoruvkaPhasesLogBound(t *testing.T) {
	g, w := randomConnected(3, 128, 0.05)
	res, err := Distributed(g, w, DistOptions{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases > 8 { // log2(128) = 7, one slack
		t.Errorf("phases = %d, want <= 8", res.Phases)
	}
}

func TestWeightsValidationPropagates(t *testing.T) {
	g := gen.Path(4)
	bad := graph.Weights{1} // wrong length
	if _, err := Kruskal(g, bad); err == nil {
		t.Error("Kruskal accepted invalid weights")
	}
	if _, err := Prim(g, bad); err == nil {
		t.Error("Prim accepted invalid weights")
	}
	if _, _, err := BoruvkaMirror(g, bad); err == nil {
		t.Error("BoruvkaMirror accepted invalid weights")
	}
}

func TestDistributedMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := gen.ClusterChain(400, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	want, err := Kruskal(g, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distributed(g, w, DistOptions{Rng: rng, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeSet(res.Tree, want) {
		t.Errorf("distributed MST differs from Kruskal: weight %f vs %f",
			res.Weight, w.Total(want))
	}
	if res.Phases < 1 || res.Rounds < 1 || res.Messages < 1 {
		t.Errorf("stats missing: %+v", res)
	}
}

func TestDistributedBaselineAlsoCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ClusterChain(300, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	want, err := Kruskal(g, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distributed(g, w, DistOptions{Rng: rng, Diameter: 5, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeSet(res.Tree, want) {
		t.Error("baseline distributed MST differs from Kruskal")
	}
}

func TestDistributedOnHardInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hi, err := gen.NewHardInstance(800, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(hi.G.NumEdges(), rng)
	want, err := Kruskal(hi.G, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distributed(hi.G, w, DistOptions{Rng: rng, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeSet(res.Tree, want) {
		t.Error("distributed MST differs from Kruskal on hard instance")
	}
}

func TestDistributedRequiresRng(t *testing.T) {
	g := gen.Path(4)
	w := graph.NewUnitWeights(g.NumEdges())
	if _, err := Distributed(g, w, DistOptions{}); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestDistributedDisconnectedForest(t *testing.T) {
	b := graph.NewBuilder(8)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(8))
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	res, err := Distributed(g, w, DistOptions{Rng: rng, Diameter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tree) != 6 {
		t.Errorf("forest edges = %d, want 6", len(res.Tree))
	}
}
