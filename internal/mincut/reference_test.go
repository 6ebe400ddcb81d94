package mincut

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
	"repro/internal/twoecss"
)

// referenceApprox is Approx as it was before the radix-sorted Kruskal and
// the offline LCAs: a comparison-sorted Kruskal per packed tree, a fresh
// load-weight buffer per tree, and a cut evaluation that walks both
// endpoints of every edge up to their LCA. It is the bit-for-bit oracle of
// TestApproxMatchesReference.
func referenceApprox(g *graph.Graph, w graph.Weights, opts ApproxOptions) (*ApproxResult, error) {
	const op = "mincut.Approx"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New(op, reproerr.KindInvalidInput, err)
	}
	n := g.NumNodes()
	if n < 2 {
		return nil, reproerr.Invalid(op, "need at least 2 nodes")
	}
	if !graph.IsConnected(g) {
		return nil, reproerr.Invalid(op, "graph is disconnected")
	}
	start := time.Now()
	k := opts.Trees
	if k <= 0 {
		k = DefaultTrees(n)
	}
	res := &ApproxResult{Value: math.Inf(1), Trees: k}
	load := make([]float64, g.NumEdges())
	var scratch mst.Scratch
	for t := 0; t < k; t++ {
		var tree []graph.EdgeID
		if t == 0 && len(opts.FirstTree) > 0 {
			tree = opts.FirstTree
			for _, e := range tree {
				load[e]++
			}
			value, side := referenceOneRespectingCut(g, w, tree)
			if value < res.Value {
				res.Value = value
				res.Side = side
			}
			continue
		}
		packW := make(graph.Weights, g.NumEdges())
		for e := range packW {
			packW[e] = load[e] + 1 + 0.01*opts.Rng.Float64()
		}
		if opts.Distributed {
			dres, err := mst.DistributedScratch(g, packW, mst.DistOptions{
				Rng:       opts.Rng,
				Diameter:  opts.Diameter,
				LogFactor: opts.LogFactor,
				Ctx:       opts.Ctx,
			}, &scratch)
			if err != nil {
				return nil, err
			}
			tree = dres.Tree
			res.AddSim(dres.Rounds, dres.Messages)
			res.MergeSchedStats(dres.SchedStats)
		} else {
			tree = referenceKruskal(g, packW)
		}
		for _, e := range tree {
			load[e]++
		}
		value, side := referenceOneRespectingCut(g, w, tree)
		if value < res.Value {
			res.Value = value
			res.Side = side
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}

// referenceKruskal is Kruskal over a sort.Slice of (weight, EdgeID).
func referenceKruskal(g *graph.Graph, w graph.Weights) []graph.EdgeID {
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
	uf := mst.NewUnionFind(g.NumNodes())
	tree := make([]graph.EdgeID, 0, g.NumNodes()-1)
	for _, e := range order {
		u, v := g.EdgeEndpoints(e)
		if uf.Union(u, v) {
			tree = append(tree, e)
		}
	}
	return tree
}

// referenceOneRespectingCut is the walk-based cut evaluation: adjacency by
// appends, a BFS from node 0, O(depth) LCA walks in edge-ID order, and the
// side materialized on every call.
func referenceOneRespectingCut(g *graph.Graph, w graph.Weights, tree []graph.EdgeID) (float64, []graph.NodeID) {
	n := g.NumNodes()
	adj := make([][]graph.NodeID, n)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	root := graph.NodeID(0)
	parent := make([]graph.NodeID, n)
	depth := make([]int32, n)
	order := make([]graph.NodeID, 0, n)
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	depth[root] = 0
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range adj[u] {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				parent[v] = u
				order = append(order, v)
			}
		}
	}
	sdeg := make([]float64, n)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		sdeg[u] += w[e]
		sdeg[v] += w[e]
	}
	lcaWeight := make([]float64, n)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if depth[u] == -1 || depth[v] == -1 {
			continue
		}
		x, y := u, v
		for depth[x] > depth[y] {
			x = parent[x]
		}
		for depth[y] > depth[x] {
			y = parent[y]
		}
		for x != y {
			x, y = parent[x], parent[y]
		}
		lcaWeight[x] += w[graph.EdgeID(e)]
	}
	subDeg := make([]float64, n)
	subLca := make([]float64, n)
	copy(subDeg, sdeg)
	copy(subLca, lcaWeight)
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		p := parent[v]
		subDeg[p] += subDeg[v]
		subLca[p] += subLca[v]
	}
	best := math.Inf(1)
	var bestRoot graph.NodeID = -1
	for _, v := range order[1:] {
		cut := subDeg[v] - 2*subLca[v]
		if cut < best {
			best = cut
			bestRoot = v
		}
	}
	if bestRoot == -1 {
		return math.Inf(1), nil
	}
	var side []graph.NodeID
	stack := []graph.NodeID{bestRoot}
	inSide := graph.NewBitset(n)
	inSide.Set(bestRoot)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		side = append(side, u)
		for _, v := range adj[u] {
			if v != parent[u] && !inSide.Has(v) && parent[v] == u {
				inSide.Set(v)
				stack = append(stack, v)
			}
		}
	}
	return best, side
}

// servingFixture draws the n-node graph the serving benchmarks use: an
// Erdős–Rényi graph with edge probability 12/n, connected and bridge-free,
// with uniform weights, from the same seeded stream.
func servingFixture(t *testing.T, n int) (*graph.Graph, graph.Weights) {
	t.Helper()
	rng := rand.New(rand.NewSource(20_210_721 + int64(n)))
	for tries := 0; tries < 100; tries++ {
		g := gen.ErdosRenyi(n, 12/float64(n), rng)
		all := make([]graph.EdgeID, g.NumEdges())
		for e := range all {
			all[e] = graph.EdgeID(e)
		}
		if graph.IsConnected(g) && len(twoecss.Bridges(g, all)) == 0 {
			return g, graph.NewUniformWeights(g.NumEdges(), rng)
		}
	}
	t.Fatalf("no connected bridge-free graph at n=%d", n)
	return nil, nil
}

// connectedER draws an Erdős–Rényi graph with edge probability c/n until it
// is connected.
func connectedER(t *testing.T, n int, c float64, rng *rand.Rand) *graph.Graph {
	t.Helper()
	for tries := 0; tries < 100; tries++ {
		if g := gen.ErdosRenyi(n, c/float64(n), rng); graph.IsConnected(g) {
			return g
		}
	}
	t.Fatalf("no connected graph at n=%d", n)
	return nil
}

// TestApproxMatchesReference pins Approx to referenceApprox bit for bit:
// Value, Side, Trees and the simulated cost, with Wall zeroed, on the
// serving configuration (the n=2000 serving fixture, its Borůvka tree
// first, the default tree count), on ER, on unit-weight ClusterChain where
// cut values tie, on a planted cut whose best side is a large subtree, on a
// hard D=3 instance, and through the distributed packing.
func TestApproxMatchesReference(t *testing.T) {
	type fixture struct {
		name  string
		g     *graph.Graph
		w     graph.Weights
		opts  ApproxOptions
		first bool
	}
	var fixtures []fixture

	g, w := servingFixture(t, 2000)
	fixtures = append(fixtures, fixture{name: "serving-er2000", g: g, w: w, first: true})

	rng := rand.New(rand.NewSource(300))
	g = connectedER(t, 300, 8, rng)
	w = graph.NewUniformWeights(g.NumEdges(), rng)
	fixtures = append(fixtures,
		fixture{name: "er300-1", g: g, w: w, opts: ApproxOptions{Trees: 1}},
		fixture{name: "er300-5", g: g, w: w, opts: ApproxOptions{Trees: 5}},
		fixture{name: "er300-5-first", g: g, w: w, opts: ApproxOptions{Trees: 5}, first: true})

	rng = rand.New(rand.NewSource(60))
	g, err := gen.ClusterChain(240, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{name: "clusterchain-unit", g: g, w: graph.NewUnitWeights(g.NumEdges())})

	// Two dense blobs joined by three edges: the best cut is a whole blob,
	// a subtree whose sum holds hundreds of LCA weights.
	g, _, _ = plantedCut(t, 60, 3, 5)
	rng = rand.New(rand.NewSource(5))
	fixtures = append(fixtures, fixture{name: "planted-uniform", g: g, w: graph.NewUniformWeights(g.NumEdges(), rng), opts: ApproxOptions{Trees: 5}})

	rng = rand.New(rand.NewSource(3))
	hi, err := gen.NewHardInstance(600, 3, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{name: "hard-d3", g: hi.G, w: graph.NewUniformWeights(hi.G.NumEdges(), rng), first: true})

	rng = rand.New(rand.NewSource(9))
	g, err = gen.ClusterChain(120, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{name: "clusterchain-distributed", g: g, w: graph.NewUniformWeights(g.NumEdges(), rng),
		opts: ApproxOptions{Trees: 3, Diameter: 4, Distributed: true}})

	for _, fx := range fixtures {
		if fx.first {
			tree, _, err := mst.BoruvkaMirror(fx.g, fx.w)
			if err != nil {
				t.Fatal(err)
			}
			fx.opts.FirstTree = tree
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fx.name, seed), func(t *testing.T) {
				opts := fx.opts
				opts.Rng = rand.New(rand.NewSource(seed))
				got, err := Approx(fx.g, fx.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Rng = rand.New(rand.NewSource(seed))
				want, err := referenceApprox(fx.g, fx.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				got.Wall, want.Wall = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Approx = {Value %v, |Side| %d, Trees %d, Rounds %d, Messages %d}, reference {Value %v, |Side| %d, Trees %d, Rounds %d, Messages %d}",
						got.Value, len(got.Side), got.Trees, got.Rounds, got.Messages,
						want.Value, len(want.Side), want.Trees, want.Rounds, want.Messages)
				}
			})
		}
	}
}
