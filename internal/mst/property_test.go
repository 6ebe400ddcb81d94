package mst

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestDistributedMatchesKruskalProperty sweeps random diameters, sizes and
// weightings: the shortcut-framework MST must equal the Kruskal MST on every
// connected instance (unique by distinct weights).
func TestDistributedMatchesKruskalProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(4)
		n := 150 + rng.Intn(250)
		g, err := gen.ClusterChain(n, d, rng)
		if err != nil {
			return true // size/diameter combination invalid: skip
		}
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		want, err := Kruskal(g, w)
		if err != nil {
			return false
		}
		res, err := Distributed(g, w, DistOptions{Rng: rng, Diameter: d})
		if err != nil {
			return false
		}
		return sameEdgeSet(res.Tree, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDistributedQualityHintPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := gen.ClusterChain(300, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	res, err := Distributed(g, w, DistOptions{Rng: rng, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.QualitySum <= 0 {
		t.Errorf("QualitySum = %d, want > 0", res.QualitySum)
	}
}

func TestBoruvkaTreeIsSpanning(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(80, 0.05, rng)
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		tree, _, err := BoruvkaMirror(g, w)
		if err != nil {
			return false
		}
		if len(tree) != g.NumNodes()-1 {
			return false
		}
		uf := NewUnionFind(g.NumNodes())
		for _, e := range tree {
			u, v := g.EdgeEndpoints(e)
			if !uf.Union(u, v) {
				return false // cycle in "tree"
			}
		}
		return uf.Count() == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
