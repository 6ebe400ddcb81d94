package sssp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
)

// distancesOracle is the reference for DistancesInto: a BFS from src over
// the tree edges of g, each node discovered from its neighbour toward src
// with dst[v] = dst[u] + w(u,v). DistancesInto must reproduce its rows bit
// for bit.
func distancesOracle(g *graph.Graph, w graph.Weights, tree []graph.EdgeID, src graph.NodeID) []float64 {
	n := g.NumNodes()
	adj := make([][]graph.EdgeID, n)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], e)
		adj[v] = append(adj[v], e)
	}
	dst := make([]float64, n)
	seen := make([]bool, n)
	for i := range dst {
		dst[i] = Infinite
	}
	dst[src] = 0
	seen[src] = true
	queue := []graph.NodeID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range adj[u] {
			v, x := g.EdgeEndpoints(e)
			if v == u {
				v = x
			}
			if !seen[v] {
				seen[v] = true
				dst[v] = dst[u] + w[e]
				queue = append(queue, v)
			}
		}
	}
	return dst
}

// assertRowsMatchOracle runs DistancesInto on ti, the index of tree over g
// under w, from every source into dst with scratch sc and compares each row
// with the oracle bit for bit. It returns dst for reuse.
func assertRowsMatchOracle(t *testing.T, tag string, g *graph.Graph, w graph.Weights, tree []graph.EdgeID,
	ti *TreeIndex, dst []float64, sc *TreeScratch) []float64 {
	t.Helper()
	n := ti.NumNodes()
	for src := graph.NodeID(0); int(src) < n; src++ {
		want := distancesOracle(g, w, tree, src)
		got, err := ti.DistancesInto(dst, src, sc)
		if err != nil {
			t.Fatalf("%s: src %d: %v", tag, src, err)
		}
		if len(got) != n {
			t.Fatalf("%s: src %d: row has %d entries, want %d", tag, src, len(got), n)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: src %d: dist[%d] = %v (%#x), oracle %v (%#x)",
					tag, src, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
			}
		}
		dst = got
	}
	return dst
}

// specialWeights returns uniform weights for g with −0, +Inf and 1e308
// planted on every edge whose ID is ≡ 1, 2, 3 (mod 7) respectively.
func specialWeights(g *graph.Graph, rng *rand.Rand) graph.Weights {
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	for e := range w {
		switch e % 7 {
		case 1:
			w[e] = math.Copysign(0, -1)
		case 2:
			w[e] = math.Inf(1)
		case 3:
			w[e] = 1e308
		}
	}
	return w
}

// randomForest returns a spanning forest of an ER graph on n nodes with
// about a fifth of its edges dropped and every tree edge at one node
// removed, so it has several components and at least one isolated node.
func randomForest(t testing.TB, n int, rng *rand.Rand) (*graph.Graph, []graph.EdgeID) {
	t.Helper()
	g := gen.ErdosRenyi(n, 4/float64(n), rng)
	span, err := mst.Kruskal(g, graph.NewUniformWeights(g.NumEdges(), rng))
	if err != nil {
		t.Fatal(err)
	}
	isolated := graph.NodeID(rng.Intn(n))
	var tree []graph.EdgeID
	for _, e := range span {
		u, v := g.EdgeEndpoints(e)
		if u != isolated && v != isolated && rng.Float64() >= 0.2 {
			tree = append(tree, e)
		}
	}
	rng.Shuffle(len(tree), func(i, j int) { tree[i], tree[j] = tree[j], tree[i] })
	return g, tree
}

func allEdges(g *graph.Graph) []graph.EdgeID {
	edges := make([]graph.EdgeID, g.NumEdges())
	for e := range edges {
		edges[e] = graph.EdgeID(e)
	}
	return edges
}

// TestDistancesIntoMatchesOracle holds the rooted sweep to the BFS it
// replaced, bit for bit on every source: random spanning forests with
// several components and isolated nodes, a long path (root paths n−1
// edges long), a star and an edgeless forest, under weights that include
// −0, +Inf and 1e308. Each index runs with a fresh dst and scratch, and
// again with a dst and a scratch shared across all cases — reused after a
// deeper tree and carrying stale rows of other sizes.
func TestDistancesIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type tc struct {
		tag  string
		g    *graph.Graph
		tree []graph.EdgeID
	}
	path := gen.Path(300)
	star := gen.Star(40)
	cases := []tc{
		{"path300", path, allEdges(path)},
		{"star40", star, allEdges(star)},
		{"edgeless", graph.NewBuilder(25).Build(), nil},
		{"single", graph.NewBuilder(1).Build(), nil},
	}
	for i := 0; i < 24; i++ {
		n := 1 + rng.Intn(300)
		g, tree := randomForest(t, n, rng)
		cases = append(cases, tc{"forest", g, tree})
	}
	shared := make([]float64, 512) // starts as stale junk, longer than any row
	for i := range shared {
		shared[i] = float64(i) - 0.5
	}
	var sharedSc TreeScratch
	for i, c := range cases {
		w := specialWeights(c.g, rng)
		ti, err := NewTreeIndex(c.g, w, c.tree)
		if err != nil {
			t.Fatalf("%s[%d]: %v", c.tag, i, err)
		}
		var fresh TreeScratch
		assertRowsMatchOracle(t, c.tag+"/fresh", c.g, w, c.tree, ti, nil, &fresh)
		shared = assertRowsMatchOracle(t, c.tag+"/reused", c.g, w, c.tree, ti, shared, &sharedSc)
	}
}

// TestTreeScratchSizedByFirstWalk pins that one walk sizes the root-path
// stack for every source of the tree: after a walk from the root of a
// 300-node path, the walk from its far end, 299 edges below, finds the
// stack big enough and does not grow it.
func TestTreeScratchSizedByFirstWalk(t *testing.T) {
	g := gen.Path(300)
	ti, err := NewTreeIndex(g, graph.NewUniformWeights(g.NumEdges(), rand.New(rand.NewSource(1))), allEdges(g))
	if err != nil {
		t.Fatal(err)
	}
	var sc TreeScratch
	dst, err := ti.DistancesInto(nil, 0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	first := cap(sc.path)
	if _, err := ti.DistancesInto(dst, 299, &sc); err != nil {
		t.Fatal(err)
	}
	if first < 300 || cap(sc.path) != first {
		t.Fatalf("root-path stack capacity %d after the root's walk, %d after the far end's; want one capacity of at least 300",
			first, cap(sc.path))
	}
}

// fuzzWeights is the weight palette FuzzTreeDistances draws from.
var fuzzWeights = []float64{1, 0.5, 2.25, 7, 3.7e-5, math.Copysign(0, -1), math.Inf(1), 1e308}

// FuzzTreeDistances decodes bytes into a node count and a list of (u, v,
// weight) tree edges — repeats and cycles included — and holds the index
// to its contract: NewTreeIndex rejects exactly the lists a union-find
// finds a cycle or repeat in, and an accepted index answers every source
// bit-identically to the BFS oracle, with both a fresh and a reused dst and
// scratch.
func FuzzTreeDistances(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 1, 2, 1, 2, 3, 6, 3, 4, 7})           // path
	f.Add([]byte{6, 0, 1, 0, 0, 2, 5, 0, 3, 6, 4, 5, 2})           // star plus a separate edge
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 2, 0, 0})                    // triangle
	f.Add([]byte{4, 0, 1, 3, 1, 0, 4})                             // repeated edge
	f.Add([]byte{9})                                               // edgeless
	f.Add([]byte{40, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5}) // isolated tail
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		type triple struct {
			u, v graph.NodeID
			w    float64
		}
		var list []triple
		b := graph.NewBuilder(n)
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			u, v := graph.NodeID(int(rest[0])%n), graph.NodeID(int(rest[1])%n)
			if u == v {
				continue
			}
			b.TryAddEdge(u, v)
			list = append(list, triple{u, v, fuzzWeights[int(rest[2])%len(fuzzWeights)]})
		}
		g := b.Build()
		w := make(graph.Weights, g.NumEdges())
		tree := make([]graph.EdgeID, len(list))
		forest := true
		uf := mst.NewUnionFind(n)
		for i, tr := range list {
			e, _ := g.FindEdge(tr.u, tr.v)
			w[e] = tr.w
			tree[i] = e
			forest = uf.Union(tr.u, tr.v) && forest
		}
		ti, err := NewTreeIndex(g, w, tree)
		if !forest {
			if reproerr.KindOf(err) != reproerr.KindInvalidInput {
				t.Fatalf("non-forest accepted or mis-kinded: err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("forest rejected: %v", err)
		}
		var sc TreeScratch
		dst := assertRowsMatchOracle(t, "fresh", g, w, tree, ti, nil, &sc)
		assertRowsMatchOracle(t, "reused", g, w, tree, ti, dst, &sc)
	})
}

var benchRow []float64

// BenchmarkDistancesInto times one warm walk on the serving benchmark's
// graph shape: a spanning tree of an Erdős–Rényi p=12/n graph at n=4000
// with uniform weights, a warm scratch and a reused dst, sources rotating
// over every node. CI asserts 0 allocs/op.
func BenchmarkDistancesInto(b *testing.B) {
	const n = 4000
	rng := rand.New(rand.NewSource(4000))
	g := gen.ErdosRenyi(n, 12/float64(n), rng)
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	tree, err := mst.Kruskal(g, w)
	if err != nil {
		b.Fatal(err)
	}
	ti, err := NewTreeIndex(g, w, tree)
	if err != nil {
		b.Fatal(err)
	}
	var sc TreeScratch
	// The last node in BFS order is a deepest one, so the warm-up sizes the
	// path stack for every source the timed loop visits.
	dst, err := ti.DistancesInto(nil, ti.ord[n-1], &sc)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = ti.DistancesInto(dst, graph.NodeID(i%n), &sc)
	}
	benchRow = dst
}
