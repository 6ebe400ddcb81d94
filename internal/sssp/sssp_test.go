package sssp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
)

func TestDijkstraPath(t *testing.T) {
	g := gen.Path(5)
	w := graph.Weights{1, 2, 3, 4}
	dist, err := Dijkstra(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3, 6, 10}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %f, want %f", v, dist[v], d)
		}
	}
}

func TestDijkstraPrefersLightDetour(t *testing.T) {
	// Triangle: direct edge 0-2 weight 10; detour via 1 weight 2.
	g, err := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := make(graph.Weights, 3)
	for e := 0; e < 3; e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if u == 0 && v == 2 {
			w[e] = 10
		} else {
			w[e] = 1
		}
	}
	dist, err := Dijkstra(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 2 {
		t.Errorf("dist[2] = %f, want 2", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	dist, err := Dijkstra(g, graph.Weights{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[2], 1) {
		t.Errorf("dist[2] = %f, want +Inf", dist[2])
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyi(60, 0.06, rng)
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	want, err := Dijkstra(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := BellmanFord(g, w, 0, congest.Options{MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Errorf("dist[%d] = %f, want %f", v, got[v], want[v])
		}
	}
	if stats.Rounds == 0 || stats.Messages == 0 {
		t.Errorf("stats missing: %+v", stats)
	}
}

func TestBellmanFordRoundsGrowWithHopDepth(t *testing.T) {
	// On a path with decreasing-weight edges toward the source, the hop
	// depth of the SP tree is n-1, so rounds must be Ω(n).
	n := 60
	g := gen.Path(n)
	w := graph.NewUnitWeights(g.NumEdges())
	_, stats, err := BellmanFord(g, w, 0, congest.Options{MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < n-2 {
		t.Errorf("rounds = %d, want >= %d on a path", stats.Rounds, n-2)
	}
}

func TestTreeApproxStretchAndCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := gen.ClusterChain(300, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	exact, err := Dijkstra(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TreeApprox(g, w, 0, TreeOptions{Rng: rng, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := Stretch(exact, res.Dist)
	if s < 1 {
		t.Errorf("stretch = %f < 1 (tree distances cannot beat exact)", s)
	}
	// Tree distances are finite on connected graphs.
	for v, d := range res.Dist {
		if math.IsInf(d, 1) {
			t.Errorf("node %d unreachable in tree", v)
		}
	}
	if res.Rounds <= 0 {
		t.Error("rounds missing")
	}
}

func TestTreeApproxRequiresRng(t *testing.T) {
	g := gen.Path(4)
	w := graph.NewUnitWeights(g.NumEdges())
	if _, err := TreeApprox(g, w, 0, TreeOptions{}); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestStretch(t *testing.T) {
	exact := []float64{0, 1, 2, math.Inf(1)}
	approx := []float64{0, 1.5, 2, math.Inf(1)}
	if s := Stretch(exact, approx); s != 1.5 {
		t.Errorf("Stretch = %f, want 1.5", s)
	}
	if s := Stretch(exact, exact); s != 1 {
		t.Errorf("self stretch = %f, want 1", s)
	}
}

// TestTreeIndexAcyclic pins NewTreeIndex's forest contract: forests
// (including partial ones) are indexed, anything with a cycle or a
// duplicate edge is rejected with KindInvalidInput.
func TestTreeIndexAcyclic(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.Weights{1, 1, 1, 1}
	cases := []struct {
		name string
		tree []graph.EdgeID
		ok   bool
	}{
		{"spanning tree", []graph.EdgeID{0, 1, 2}, true},
		{"partial forest", []graph.EdgeID{0, 2}, true},
		{"empty", nil, true},
		{"cycle", []graph.EdgeID{0, 1, 2, 3}, false},
		{"duplicate edge", []graph.EdgeID{0, 0}, false},
		{"edge ID past m", []graph.EdgeID{0, 4}, false},
		{"negative edge ID", []graph.EdgeID{-1, 1}, false},
	}
	for _, tc := range cases {
		_, err := NewTreeIndex(g, w, tc.tree)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && reproerr.KindOf(err) != reproerr.KindInvalidInput:
			t.Errorf("%s: err = %v, want KindInvalidInput", tc.name, err)
		}
	}
}
