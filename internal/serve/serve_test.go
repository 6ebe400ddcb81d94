package serve_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/mst"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/sssp"
	"repro/internal/twoecss"
)

// fixture builds a snapshot every query kind can answer: a dense-enough
// Erdős–Rényi graph (connected and 2-edge-connected at this density) with a
// Voronoi partition.
type fixture struct {
	g     *graph.Graph
	w     graph.Weights
	parts [][]graph.NodeID
	snap  *serve.Snapshot
}

func makeFixture(t testing.TB, n int, seed int64) *fixture {
	t.Helper()
	return buildFixture(t, n, seed, false)
}

// makeSimulatedFixture is makeFixture with SnapshotOptions.Distributed: the
// same graph, parts and tree, plus the simulated MST's recorded cost.
func makeSimulatedFixture(t testing.TB, n int, seed int64) *fixture {
	t.Helper()
	return buildFixture(t, n, seed, true)
}

func buildFixture(t testing.TB, n int, seed int64, distributed bool) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, math.Max(0.01, 8/float64(n)), rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
		Rng: rng, LogFactor: 0.3, Distributed: distributed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, w: w, parts: parts, snap: snap}
}

func allEdges(g *graph.Graph) []graph.EdgeID {
	edges := make([]graph.EdgeID, g.NumEdges())
	for e := range edges {
		edges[e] = graph.EdgeID(e)
	}
	return edges
}

func TestSnapshotMSTMatchesKruskal(t *testing.T) {
	fx := makeFixture(t, 400, 1)
	want, err := mst.Kruskal(fx.g, fx.w)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	a, err := srv.Serve(serve.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	ans := a.(*serve.MSTAnswer)
	if len(ans.Tree) != len(want) {
		t.Fatalf("tree sizes differ: %d vs %d", len(ans.Tree), len(want))
	}
	wantW := fx.w.Total(want)
	if math.Abs(ans.Weight-wantW) > 1e-9 {
		t.Fatalf("weights differ: %f vs %f", ans.Weight, wantW)
	}
}

// referenceTreeDist is an independent implementation of within-tree weighted
// distances (plain adjacency lists + BFS), the oracle for every serve path.
func referenceTreeDist(g *graph.Graph, w graph.Weights, tree []graph.EdgeID, src graph.NodeID) []float64 {
	n := g.NumNodes()
	type arc struct {
		to graph.NodeID
		w  float64
	}
	adj := make([][]arc, n)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], arc{v, w[e]})
		adj[v] = append(adj[v], arc{u, w[e]})
	}
	dist := make([]float64, n)
	seen := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	seen[src] = true
	queue := []graph.NodeID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range adj[u] {
			if !seen[a.to] {
				seen[a.to] = true
				dist[a.to] = dist[u] + a.w
				queue = append(queue, a.to)
			}
		}
	}
	return dist
}

func TestServeSSSPMatchesReference(t *testing.T) {
	fx := makeSimulatedFixture(t, 400, 2)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	exact, err := sssp.Dijkstra(fx.g, fx.w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []graph.NodeID{0, 3, 17, 399} {
		want := referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), src)
		a, err := srv.Serve(serve.SSSPQuery{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		got := a.(*serve.SSSPAnswer)
		if got.Source != src {
			t.Fatalf("answer source %d, want %d", got.Source, src)
		}
		for v := range want {
			if got.Dist[v] != want[v] {
				t.Fatalf("src %d: dist[%d]=%v, reference %v", src, v, got.Dist[v], want[v])
			}
		}
		if got.Rounds <= 0 || got.Messages <= 0 {
			t.Fatalf("src %d: no marginal cost charged: %+v", src, got)
		}
	}
	// Tree distances can never beat the true shortest paths.
	a, err := srv.Serve(serve.SSSPQuery{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range a.(*serve.SSSPAnswer).Dist {
		if d < exact[v]-1e-9 {
			t.Fatalf("dist[%d]=%v below exact %v", v, d, exact[v])
		}
	}
}

func TestServeSSSPIntoReusesBuffer(t *testing.T) {
	fx := makeFixture(t, 300, 3)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	dst := make([]float64, fx.g.NumNodes())
	out, err := srv.ServeSSSPInto(dst, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Fatal("ServeSSSPInto did not reuse the destination buffer")
	}
	want := referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), 5)
	for v := range want {
		if out[v] != want[v] {
			t.Fatalf("dist[%d]=%v, reference %v", v, out[v], want[v])
		}
	}
}

func TestServeBatchMatchesSingle(t *testing.T) {
	fx := makeFixture(t, 400, 4)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	queries := []serve.Query{
		serve.SSSPQuery{Source: 7},
		serve.MSTQuery{},
		serve.SSSPQuery{Source: 0},
		serve.QualityQuery{Part: 2},
		serve.SSSPQuery{Source: 7}, // duplicate source in the same batch
		serve.MinCutQuery{},
		serve.TwoECSSQuery{},
		serve.SSSPQuery{Source: 311},
	}
	batch, err := srv.ServeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d answers for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		single, err := srv.Serve(q)
		if err != nil {
			t.Fatal(err)
		}
		switch want := single.(type) {
		case *serve.SSSPAnswer:
			got := batch[i].(*serve.SSSPAnswer)
			if got.Source != want.Source {
				t.Fatalf("query %d: source %d vs %d", i, got.Source, want.Source)
			}
			for v := range want.Dist {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("query %d: dist[%d] batched %v vs single %v", i, v, got.Dist[v], want.Dist[v])
				}
			}
			if got.Cost != want.Cost {
				t.Fatalf("query %d: batched cost %+v vs single %+v", i, got.Cost, want.Cost)
			}
		case *serve.MSTAnswer:
			got := batch[i].(*serve.MSTAnswer)
			if got.Weight != want.Weight || len(got.Tree) != len(want.Tree) {
				t.Fatalf("query %d: MST answers differ", i)
			}
		case *serve.MinCutAnswer:
			got := batch[i].(*serve.MinCutAnswer)
			if got.Value != want.Value || got.Trees != want.Trees || len(got.Side) != len(want.Side) {
				t.Fatalf("query %d: min-cut answers differ: %+v vs %+v", i, got, want)
			}
		case *serve.TwoECSSAnswer:
			got := batch[i].(*serve.TwoECSSAnswer)
			if got.Weight != want.Weight || len(got.Edges) != len(want.Edges) {
				t.Fatalf("query %d: 2-ECSS answers differ", i)
			}
		case *serve.QualityAnswer:
			got := batch[i].(*serve.QualityAnswer)
			if *got != *want {
				t.Fatalf("query %d: quality answers differ: %+v vs %+v", i, got, want)
			}
		default:
			t.Fatalf("query %d: unexpected answer type %T", i, single)
		}
	}
	st := srv.Stats()
	if st.Batches != 1 || st.BatchedQueries != int64(len(queries)) {
		t.Fatalf("batch counters: %+v", st)
	}
}

func TestServeMinCutDeterministicAndSound(t *testing.T) {
	fx := makeFixture(t, 240, 5)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Seed: 99})
	exact, _, err := mincut.StoerWagner(fx.g, fx.w)
	if err != nil {
		t.Fatal(err)
	}
	var first *serve.MinCutAnswer
	for i := 0; i < 3; i++ {
		a, err := srv.Serve(serve.MinCutQuery{})
		if err != nil {
			t.Fatal(err)
		}
		ans := a.(*serve.MinCutAnswer)
		if ans.Value < exact-1e-9 {
			t.Fatalf("cut value %f below exact %f (not a real cut)", ans.Value, exact)
		}
		if first == nil {
			first = ans
			continue
		}
		if ans.Value != first.Value || ans.Trees != first.Trees || len(ans.Side) != len(first.Side) {
			t.Fatalf("repeat %d: answer drifted: %+v vs %+v", i, ans, first)
		}
	}
	// More trees (smaller Eps) can only help — and stays deterministic.
	tight, err := srv.Serve(serve.MinCutQuery{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ta := tight.(*serve.MinCutAnswer); ta.Trees <= first.Trees {
		t.Fatalf("Eps=0.5 packed %d trees, default packed %d", ta.Trees, first.Trees)
	}
}

// TestServeMinCutRejectsBadEps pins the library path to the gateway's eps
// rule: a tiny eps would pack DefaultTrees/eps trees (22e9 at 1e-9, an int
// overflow at 1e-300), so it fails typed before any packing starts, alone
// or inside a batch.
func TestServeMinCutRejectsBadEps(t *testing.T) {
	fx := makeFixture(t, 200, 5)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	for _, eps := range []float64{1e-9, 1e-300, -1, math.Inf(1), math.NaN()} {
		if _, err := srv.Serve(serve.MinCutQuery{Eps: eps}); reproerr.KindOf(err) != reproerr.KindInvalidInput {
			t.Errorf("Serve eps=%v: got %v, want KindInvalidInput", eps, err)
		}
		batch := []serve.Query{serve.SSSPQuery{Source: 0}, serve.MinCutQuery{Eps: eps}}
		if _, err := srv.ServeBatch(batch); reproerr.KindOf(err) != reproerr.KindInvalidInput {
			t.Errorf("ServeBatch eps=%v: got %v, want KindInvalidInput", eps, err)
		}
	}
}

func TestServeTwoECSS(t *testing.T) {
	fx := makeFixture(t, 300, 6)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	a, err := srv.Serve(serve.TwoECSSQuery{})
	if err != nil {
		t.Fatal(err)
	}
	ans := a.(*serve.TwoECSSAnswer)
	if !twoecss.IsTwoEdgeConnected(fx.g, ans.Edges) {
		t.Fatal("answer subgraph is not 2-edge-connected")
	}
	if ans.Ratio < 1 || ans.Weight < ans.LowerBound {
		t.Fatalf("inconsistent answer: %+v", ans)
	}
	want, err := twoecss.Approx(fx.g, fx.w, twoecss.Options{Tree: fx.snap.Tree()})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Weight != want.Weight || len(ans.Edges) != len(want.Edges) {
		t.Fatal("serve answer differs from the reentrant twoecss entry point")
	}
}

func TestServeQualityPerPart(t *testing.T) {
	fx := makeFixture(t, 400, 7)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	overall := fx.snap.Quality()
	var maxLo, maxHi int32
	for i := range fx.parts {
		a, err := srv.Serve(serve.QualityQuery{Part: i})
		if err != nil {
			t.Fatal(err)
		}
		ans := a.(*serve.QualityAnswer)
		if ans.Quality.Congestion != overall.Congestion {
			t.Fatalf("part %d: congestion %d, snapshot measured %d", i, ans.Quality.Congestion, overall.Congestion)
		}
		// The served record must equal a fresh measurement (3000 is
		// NewSnapshot's default dilation cutoff).
		want, err := fx.snap.Shortcuts().PartDilation(i, 3000)
		if err != nil {
			t.Fatal(err)
		}
		want.Congestion = overall.Congestion
		if ans.Quality != want {
			t.Fatalf("part %d: served %+v, recomputed %+v", i, ans.Quality, want)
		}
		if ans.Quality.DilationLo > maxLo {
			maxLo = ans.Quality.DilationLo
		}
		if ans.Quality.DilationHi > maxHi {
			maxHi = ans.Quality.DilationHi
		}
	}
	if maxLo != overall.DilationLo || maxHi != overall.DilationHi {
		t.Fatalf("per-part max dilation [%d,%d] vs snapshot [%d,%d]",
			maxLo, maxHi, overall.DilationLo, overall.DilationHi)
	}
	for _, part := range []int{-1, len(fx.parts)} {
		if _, err := srv.Serve(serve.QualityQuery{Part: part}); reproerr.KindOf(err) != reproerr.KindInvalidInput {
			t.Fatalf("part %d: error %v, want KindInvalidInput", part, err)
		}
	}
}

func TestServeErrors(t *testing.T) {
	fx := makeFixture(t, 200, 8)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	if _, err := srv.Serve(nil); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := srv.Serve(serve.SSSPQuery{Source: -1}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := srv.Serve(serve.SSSPQuery{Source: graph.NodeID(fx.g.NumNodes())}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := srv.ServeBatch([]serve.Query{serve.SSSPQuery{Source: 0}, serve.SSSPQuery{Source: -5}}); err == nil {
		t.Fatal("batch with out-of-range source accepted")
	}
	// A failed batch delivers nothing, so it must count nothing.
	before := srv.Stats()
	if _, err := srv.ServeBatch([]serve.Query{
		serve.SSSPQuery{Source: 1}, serve.SSSPQuery{Source: 2}, serve.QualityQuery{Part: 10_000},
	}); err == nil {
		t.Fatal("batch with out-of-range part accepted")
	}
	if after := srv.Stats(); after != before {
		t.Fatalf("failed batch moved counters: %+v -> %+v", before, after)
	}
}

func TestSnapshotImmutableUnderLoad(t *testing.T) {
	fx := makeFixture(t, 300, 9)
	treeBefore := append([]graph.EdgeID(nil), fx.snap.Tree()...)
	weightsBefore := append(graph.Weights(nil), fx.w...)
	qualityBefore := fx.snap.Quality()

	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 3})
	queries := []serve.Query{
		serve.SSSPQuery{Source: 1}, serve.SSSPQuery{Source: 2}, serve.MSTQuery{},
		serve.MinCutQuery{}, serve.TwoECSSQuery{}, serve.QualityQuery{Part: 0},
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.ServeBatch(queries); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range fx.snap.Tree() {
		if e != treeBefore[i] {
			t.Fatal("snapshot tree mutated by serving")
		}
	}
	for i, w := range fx.w {
		if w != weightsBefore[i] {
			t.Fatal("weights mutated by serving")
		}
	}
	if fx.snap.Quality() != qualityBefore {
		t.Fatal("quality mutated by serving")
	}
	st := srv.Stats()
	if st.Total() != int64(3*len(queries)) {
		t.Fatalf("stats total %d, want %d", st.Total(), 3*len(queries))
	}
}

func TestSnapshotBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ClusterChain(100, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{}); err == nil {
		t.Fatal("missing Rng accepted")
	}
	if _, err := serve.NewSnapshot(g, w[:1], parts, serve.SnapshotOptions{Rng: rng}); err == nil {
		t.Fatal("short weights accepted")
	}
	if _, err := serve.NewSnapshot(g, w, [][]graph.NodeID{{0}, {0}}, serve.SnapshotOptions{Rng: rng}); err == nil {
		t.Fatal("overlapping parts accepted")
	}
}
