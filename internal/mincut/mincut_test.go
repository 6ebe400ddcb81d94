package mincut

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestStoerWagnerKnownSmall(t *testing.T) {
	// Two triangles joined by one light edge: min cut = that bridge.
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	w := graph.NewUnitWeights(g.NumEdges())
	val, side, err := StoerWagner(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if val != 1 {
		t.Errorf("min cut = %f, want 1", val)
	}
	if got := CutWeight(g, w, side); got != val {
		t.Errorf("CutWeight(side) = %f, want %f", got, val)
	}
	if len(side) != 3 {
		t.Errorf("side size = %d, want 3", len(side))
	}
}

func TestStoerWagnerCompleteGraph(t *testing.T) {
	// K5 with unit weights: min cut isolates one vertex, value 4.
	g := gen.Complete(5)
	w := graph.NewUnitWeights(g.NumEdges())
	val, _, err := StoerWagner(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if val != 4 {
		t.Errorf("K5 min cut = %f, want 4", val)
	}
}

func TestStoerWagnerErrors(t *testing.T) {
	g := gen.Path(1)
	w := graph.Weights{}
	if _, _, err := StoerWagner(g, w); err == nil {
		t.Error("single node accepted")
	}
	b := graph.NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := StoerWagner(b.Build(), graph.Weights{1}); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestStoerWagnerWeighted(t *testing.T) {
	// Path with weights 5, 1, 5: cut the middle.
	g := gen.Path(4)
	w := make(graph.Weights, 3)
	for e := 0; e < 3; e++ {
		u, _ := g.EdgeEndpoints(graph.EdgeID(e))
		if u == 1 {
			w[e] = 1
		} else {
			w[e] = 5
		}
	}
	val, _, err := StoerWagner(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if val != 1 {
		t.Errorf("min cut = %f, want 1", val)
	}
}

// plantedCut builds two dense blobs joined by exactly `cross` unit edges, so
// the minimum cut is `cross` by construction (blob internal connectivity is
// much higher).
func plantedCut(t *testing.T, half, cross int, seed int64) (*graph.Graph, graph.Weights, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(2 * half)
	dense := func(base int) {
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				if rng.Float64() < 0.5 {
					b.TryAddEdge(graph.NodeID(base+i), graph.NodeID(base+j))
				}
			}
		}
		// Spanning path for guaranteed connectivity.
		for i := 0; i+1 < half; i++ {
			b.TryAddEdge(graph.NodeID(base+i), graph.NodeID(base+i+1))
		}
	}
	dense(0)
	dense(half)
	added := 0
	for added < cross {
		if b.TryAddEdge(graph.NodeID(rng.Intn(half)), graph.NodeID(half+rng.Intn(half))) {
			added++
		}
	}
	g := b.Build()
	return g, graph.NewUnitWeights(g.NumEdges()), float64(cross)
}

func TestStoerWagnerPlanted(t *testing.T) {
	g, w, want := plantedCut(t, 12, 2, 1)
	val, _, err := StoerWagner(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if val != want {
		t.Errorf("planted min cut = %f, want %f", val, want)
	}
}

func TestApproxNeverBelowTrueCut(t *testing.T) {
	// Every 1-respecting cut is a real cut, so Approx.Value >= exact.
	for seed := int64(0); seed < 5; seed++ {
		g, w, _ := plantedCut(t, 10, 3, seed)
		exact, _, err := StoerWagner(g, w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		res, err := Approx(g, w, ApproxOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value < exact-1e-9 {
			t.Errorf("seed %d: approx %f below exact %f", seed, res.Value, exact)
		}
		if got := CutWeight(g, w, res.Side); got != res.Value {
			t.Errorf("seed %d: reported side weight %f != value %f", seed, got, res.Value)
		}
	}
}

func TestApproxFindsPlantedCut(t *testing.T) {
	// The planted cut is so much lighter than everything else that tree
	// packing must find it exactly (the packed MSTs cross it rarely).
	g, w, want := plantedCut(t, 14, 2, 7)
	rng := rand.New(rand.NewSource(8))
	res, err := Approx(g, w, ApproxOptions{Rng: rng, Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 2*want {
		t.Errorf("approx %f above 2x planted %f", res.Value, want)
	}
}

func TestApproxRatioWithinGuarantee(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ClusterChain(60, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		exact, _, err := StoerWagner(g, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Approx(g, w, ApproxOptions{Rng: rng, Trees: 14})
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.Value / exact
		if ratio < 1-1e-9 || ratio > 2.5 {
			t.Errorf("seed %d: ratio %f outside [1, 2.5]", seed, ratio)
		}
	}
}

func TestApproxDistributedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := gen.ClusterChain(120, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	res, err := Approx(g, w, ApproxOptions{Rng: rng, Trees: 3, Diameter: 4, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Errorf("distributed accounting missing: %+v", res)
	}
	exact, _, err := StoerWagner(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < exact-1e-9 {
		t.Errorf("approx %f below exact %f", res.Value, exact)
	}
}

func TestApproxRequiresRng(t *testing.T) {
	g := gen.Complete(4)
	w := graph.NewUnitWeights(g.NumEdges())
	if _, err := Approx(g, w, ApproxOptions{}); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestCutWeightEmptySide(t *testing.T) {
	g := gen.Complete(4)
	w := graph.NewUnitWeights(g.NumEdges())
	if got := CutWeight(g, w, nil); got != 0 {
		t.Errorf("empty side cut = %f, want 0", got)
	}
	if got := CutWeight(g, w, []graph.NodeID{0}); got != 3 {
		t.Errorf("singleton cut = %f, want 3", got)
	}
}

// TestCheckEps pins the one eps rule the facade, the serving layer and the
// gateway share: 0 or a finite value at or above MinEps. Every accepted
// value packs a bounded, positive tree count; the rejected ones would not
// (1e-300 overflows DefaultTrees/eps).
func TestCheckEps(t *testing.T) {
	const n = 2000
	for _, eps := range []float64{0, MinEps, 0.5, 1, 1e6} {
		if err := CheckEps(eps); err != nil {
			t.Errorf("eps %v rejected: %v", eps, err)
		}
		if k := TreesForEps(n, eps); k < 1 || k > int(float64(DefaultTrees(n))/MinEps)+1 {
			t.Errorf("eps %v packs %d trees", eps, k)
		}
	}
	for _, eps := range []float64{1e-9, 1e-300, MinEps / 2, -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := CheckEps(eps); err == nil {
			t.Errorf("eps %v accepted", eps)
		}
	}
}
