package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
)

func TestQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := repro.ClusterChain(800, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := repro.VoronoiParts(g, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPartition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := repro.BuildShortcutsCtx(context.Background(), g, p, repro.WithSeed(1), repro.WithDiameter(5))
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	trivial := repro.TrivialShortcuts(p)
	tq, err := trivial.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.DilationHi > tq.DilationHi {
		t.Errorf("shortcuts made dilation worse: %d vs trivial %d", q.DilationHi, tq.DilationHi)
	}
}

func TestFacadeMST(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := repro.ClusterChain(300, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := repro.UniformWeights(g, rng)
	exact, err := repro.MST(g, w)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := repro.MSTDistributedCtx(context.Background(), g, w, repro.WithSeed(2), repro.WithDiameter(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Tree) != len(exact) {
		t.Errorf("tree sizes differ: %d vs %d", len(dist.Tree), len(exact))
	}
	if diff := dist.Weight - w.Total(exact); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weights differ: %f vs %f", dist.Weight, w.Total(exact))
	}
}

func TestFacadeMinCutAndSSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := repro.ClusterChain(120, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := repro.UniformWeights(g, rng)
	exact, _, err := repro.MinCut(g, w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	approx, err := repro.MinCutApproxCtx(ctx, g, w, repro.WithSeed(3), repro.WithTrees(8))
	if err != nil {
		t.Fatal(err)
	}
	if approx.Value < exact-1e-9 {
		t.Errorf("approx cut %f below exact %f", approx.Value, exact)
	}

	dists, err := repro.SSSP(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := repro.SSSPApproxCtx(ctx, g, w, 0, repro.WithSeed(3), repro.WithDiameter(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := range dists {
		if ap.Dist[v] < dists[v]-1e-9 {
			t.Errorf("approx dist[%d]=%f below exact %f", v, ap.Dist[v], dists[v])
		}
	}
}

func TestFacadeHardInstanceAndDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hi, err := repro.NewHardInstance(600, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPartition(hi.G, hi.Paths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.BuildShortcutsDistributedCtx(context.Background(), hi.G, p,
		repro.WithSeed(4), repro.WithKnownDiameter(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Error("no rounds recorded")
	}
	if repro.KD(600, 4) <= 1 {
		t.Error("KD(600,4) should exceed 1")
	}
}

func TestFacadeServing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := repro.ClusterChain(500, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := repro.UniformWeights(g, rng)
	parts, err := repro.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := repro.NewSnapshotCtx(context.Background(), g, w, parts, repro.WithSeed(5), repro.WithDiameter(5))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repro.NewServerV2(snap, repro.WithExecutors(2))
	if err != nil {
		t.Fatal(err)
	}

	exactTree, err := repro.MST(g, w)
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Serve(repro.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.(*repro.MSTAnswer); got.Weight-w.Total(exactTree) > 1e-9 || w.Total(exactTree)-got.Weight > 1e-9 {
		t.Errorf("served MST weight %f vs Kruskal %f", got.Weight, w.Total(exactTree))
	}

	exact, err := repro.SSSP(g, w, 7)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := srv.ServeBatch([]repro.ServeQuery{
		repro.SSSPQuery{Source: 7},
		repro.SSSPQuery{Source: 123},
		repro.QualityQuery{Part: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sa := answers[0].(*repro.SSSPAnswer)
	for v := range exact {
		if sa.Dist[v] < exact[v]-1e-9 {
			t.Fatalf("served dist[%d]=%f below exact %f", v, sa.Dist[v], exact[v])
		}
	}
	if q := answers[2].(*repro.QualityAnswer); q.Quality.Congestion != snap.Quality().Congestion {
		t.Errorf("served congestion %d vs snapshot %d", q.Quality.Congestion, snap.Quality().Congestion)
	}
	if st := srv.Stats(); st.Total() != 4 || st.Batches != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestFacadeGraphBuilder(t *testing.T) {
	b := repro.NewGraphBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("built %s", g)
	}
	g2, err := repro.FromEdges(2, [][2]repro.NodeID{{0, 1}})
	if err != nil || g2.NumEdges() != 1 {
		t.Errorf("FromEdges: %v", err)
	}
}

// TestMSTEmptyGraph runs MST on the two graphs with no nodes, a built
// zero-node graph and the zero Graph: both give an empty tree and no error.
func TestMSTEmptyGraph(t *testing.T) {
	for name, g := range map[string]*repro.Graph{
		"built": repro.NewGraphBuilder(0).Build(),
		"zero":  {},
	} {
		if n := g.NumNodes(); n != 0 {
			t.Errorf("%s: NumNodes = %d, want 0", name, n)
		}
		tree, err := repro.MST(g, nil)
		if err != nil || len(tree) != 0 {
			t.Errorf("%s: MST = %v, %v; want an empty tree and no error", name, tree, err)
		}
	}
}
