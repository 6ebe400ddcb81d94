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
// the tree CSR, each node discovered from its neighbour toward src with
// dst[v] = dst[u] + w(u,v). DistancesInto must reproduce its rows bit for
// bit.
func distancesOracle(ti *TreeIndex, src graph.NodeID) []float64 {
	n := ti.NumNodes()
	dst := make([]float64, n)
	hops := make([]int32, n)
	for i := range dst {
		dst[i] = Infinite
		hops[i] = -1
	}
	dst[src] = 0
	hops[src] = 0
	queue := []graph.NodeID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for a := ti.off[u]; a < ti.off[u+1]; a++ {
			v := ti.to[a]
			if hops[v] == -1 {
				hops[v] = hops[u] + 1
				dst[v] = dst[u] + ti.wt[a]
				queue = append(queue, v)
			}
		}
	}
	return dst
}

// assertRowsMatchOracle runs DistancesInto from every source of ti into dst
// with scratch sc and compares each row with the oracle bit for bit. It
// returns dst for reuse.
func assertRowsMatchOracle(t *testing.T, tag string, ti *TreeIndex, dst []float64, sc *TreeScratch) []float64 {
	t.Helper()
	n := ti.NumNodes()
	for src := graph.NodeID(0); int(src) < n; src++ {
		want := distancesOracle(ti, src)
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
		ti, err := NewTreeIndex(c.g, specialWeights(c.g, rng), c.tree)
		if err != nil {
			t.Fatalf("%s[%d]: %v", c.tag, i, err)
		}
		var fresh TreeScratch
		assertRowsMatchOracle(t, c.tag+"/fresh", ti, nil, &fresh)
		shared = assertRowsMatchOracle(t, c.tag+"/reused", ti, shared, &sharedSc)
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

// TestRawTreeIndexRejectsMalformed feeds RawTreeIndex malformed persisted
// arrays: each must fail with KindInvalidInput rather than build an index
// a later walk could index out of range with or read garbage from.
func TestRawTreeIndexRejectsMalformed(t *testing.T) {
	w := func(k int) []float64 { return make([]float64, k) }
	cases := []struct {
		name string
		off  []int32
		to   []graph.NodeID
		wt   []float64
	}{
		{"empty offsets", nil, nil, nil},
		{"weights short", []int32{0, 1, 2}, []graph.NodeID{1, 0}, w(1)},
		{"first offset", []int32{1, 1, 2}, []graph.NodeID{1, 0}, w(2)},
		{"last offset", []int32{0, 1, 1}, []graph.NodeID{1, 0}, w(2)},
		{"offsets not monotone", []int32{0, 2, 1, 2}, []graph.NodeID{1, 0}, w(2)},
		{"offset beyond arcs", []int32{0, 3, 2, 2}, []graph.NodeID{1, 2}, w(2)},
		{"target too large", []int32{0, 1, 2}, []graph.NodeID{7, 0}, w(2)},
		{"target negative", []int32{0, 1, 2}, []graph.NodeID{1, -3}, w(2)},
		{"self-loop", []int32{0, 2, 3}, []graph.NodeID{0, 1, 0}, w(3)},
		{"duplicate edge", []int32{0, 2, 4}, []graph.NodeID{1, 1, 0, 0}, w(4)},
		{"cycle", []int32{0, 2, 4, 6}, []graph.NodeID{1, 2, 0, 2, 0, 1}, w(6)},
		{"arc without reverse", []int32{0, 1, 1}, []graph.NodeID{1}, w(1)},
	}
	for _, tc := range cases {
		if _, err := RawTreeIndex(tc.off, tc.to, tc.wt); reproerr.KindOf(err) != reproerr.KindInvalidInput {
			t.Errorf("%s: err = %v, want KindInvalidInput", tc.name, err)
		}
	}

	// The arrays of a real index round-trip and walk like the original.
	rng := rand.New(rand.NewSource(7))
	g, tree := randomForest(t, 60, rng)
	ti, err := NewTreeIndex(g, specialWeights(g, rng), tree)
	if err != nil {
		t.Fatal(err)
	}
	re, err := RawTreeIndex(ti.Raw())
	if err != nil {
		t.Fatal(err)
	}
	var sc TreeScratch
	assertRowsMatchOracle(t, "raw", re, nil, &sc)
}

// fuzzWeights is the weight palette FuzzTreeDistances draws from.
var fuzzWeights = []float64{1, 0.5, 2.25, 7, 3.7e-5, math.Copysign(0, -1), math.Inf(1), 1e308}

// FuzzTreeDistances decodes bytes into a node count and a list of (u, v,
// weight) tree edges — repeats and cycles included — and holds the index
// to its contract: NewTreeIndex rejects exactly the lists a union-find
// finds a cycle or repeat in, and an accepted index (and its RawTreeIndex
// round trip) answers every source bit-identically to the BFS oracle, with
// both a fresh and a reused dst and scratch.
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
		re, err := RawTreeIndex(ti.Raw())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		var sc TreeScratch
		dst := assertRowsMatchOracle(t, "fresh", ti, nil, &sc)
		assertRowsMatchOracle(t, "reused", re, dst, &sc)
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
