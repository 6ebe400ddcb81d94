package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/twoecss"
)

// The differential harness: for random delta streams over several generator
// families, the Snapshot ApplyDelta derives must be query-for-query
// bit-identical to a from-scratch NewSnapshot on the post-delta graph under
// the same derived seeds. This is the pin that lets the dynamic update path exist at all: reusing the
// untouched parts' dilation records and skipping the simulated MST are only
// optimizations if nobody can tell they happened.

type diffFamily struct {
	name string
	make func(n int, rng *rand.Rand) *graph.Graph
}

func diffFamilies() []diffFamily {
	return []diffFamily{
		{"chain", func(n int, rng *rand.Rand) *graph.Graph {
			g, err := gen.ClusterChain(n, 6, rng)
			if err != nil {
				panic(err)
			}
			return g
		}},
		{"er", func(n int, rng *rand.Rand) *graph.Graph {
			for {
				g := gen.ErdosRenyi(n, 8/float64(n), rng)
				if graph.IsConnected(g) {
					return g
				}
			}
		}},
		{"dumbbell", func(n int, rng *rand.Rand) *graph.Graph {
			return gen.Dumbbell(n/8, 6)
		}},
	}
}

// diffDelta draws a delta of exactly `size` mutations, biased toward
// insertions. Deletions are connectivity-aware: a candidate is kept only if
// the graph stays globally connected and (for intra-part edges) the part's
// induced subgraph stays connected after all deletions picked so far — so
// the update path is exercised without tripping the legitimate
// disconnection failure.
func diffDelta(g *graph.Graph, partOf []int32, size int, rng *rand.Rand) graph.Delta {
	var d graph.Delta
	n := g.NumNodes()
	dead := map[graph.EdgeID]bool{}
	inserted := map[[2]graph.NodeID]bool{}
	deletes := size / 8
	for tries := 0; d.Size() < size && tries < 200*size+1000; tries++ {
		if len(d.Delete) < deletes && g.NumEdges() > 0 && tries%5 == 0 {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if dead[e] {
				continue
			}
			dead[e] = true
			u, v := g.EdgeEndpoints(e)
			if !connectedWithout(g, dead, -1, nil) ||
				(partOf[u] >= 0 && partOf[u] == partOf[v] && !connectedWithout(g, dead, partOf[u], partOf)) {
				delete(dead, e) // would disconnect: skip this candidate
				continue
			}
			d.Delete = append(d.Delete, [2]graph.NodeID{u, v})
			continue
		}
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]graph.NodeID{u, v}
		if g.HasEdge(u, v) || inserted[key] {
			continue
		}
		inserted[key] = true
		d.Insert = append(d.Insert, graph.DeltaEdge{U: u, V: v, W: rng.Float64()})
	}
	return d
}

// connectedWithout reports whether the graph minus the dead edges is
// connected — over all nodes when part < 0, or over part's induced subgraph
// otherwise.
func connectedWithout(g *graph.Graph, dead map[graph.EdgeID]bool, part int32, partOf []int32) bool {
	n := g.NumNodes()
	inScope := func(v graph.NodeID) bool { return part < 0 || partOf[v] == part }
	start := graph.NodeID(-1)
	total := 0
	for v := 0; v < n; v++ {
		if inScope(graph.NodeID(v)) {
			if start < 0 {
				start = graph.NodeID(v)
			}
			total++
		}
	}
	if total <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	queue := []graph.NodeID{start}
	reached := 1
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		g.Arcs(u, func(_ int32, v graph.NodeID, e graph.EdgeID) bool {
			if dead[e] || seen[v] || !inScope(v) {
				return true
			}
			seen[v] = true
			reached++
			queue = append(queue, v)
			return true
		})
	}
	return reached == total
}

// partOfTable maps nodes to their part index (-1 outside every part).
func partOfTable(n int, parts [][]graph.NodeID) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for pi, nodes := range parts {
		for _, v := range nodes {
			out[v] = int32(pi)
		}
	}
	return out
}

// changedByEndpoints lists, ascending, the parts whose shortcut edges,
// named by their endpoints, differ between two snapshots: the touched-set
// oracle, blind to the edge renumbering a delta causes.
func changedByEndpoints(a, b *serve.Snapshot) []int {
	ends := func(sn *serve.Snapshot, pi int) [][2]graph.NodeID {
		var out [][2]graph.NodeID
		for _, e := range sn.Shortcuts().H[pi] {
			u, v := sn.Graph().EdgeEndpoints(e)
			out = append(out, [2]graph.NodeID{u, v})
		}
		return out
	}
	var changed []int
	for pi := range b.Shortcuts().H {
		if !slices.Equal(ends(a, pi), ends(b, pi)) {
			changed = append(changed, pi)
		}
	}
	return changed
}

// assertSnapshotsEqual compares every piece of serving state that answers
// are derived from.
func assertSnapshotsEqual(t *testing.T, tag string, got, want *serve.Snapshot) {
	t.Helper()
	gs, ws := got.Shortcuts(), want.Shortcuts()
	if len(gs.H) != len(ws.H) {
		t.Fatalf("%s: part counts %d vs %d", tag, len(gs.H), len(ws.H))
	}
	for pi := range ws.H {
		if len(gs.H[pi]) != len(ws.H[pi]) {
			t.Fatalf("%s: part %d |H| %d vs %d", tag, pi, len(gs.H[pi]), len(ws.H[pi]))
		}
		for j := range ws.H[pi] {
			if gs.H[pi][j] != ws.H[pi][j] {
				t.Fatalf("%s: part %d H[%d] %d vs %d", tag, pi, j, gs.H[pi][j], ws.H[pi][j])
			}
		}
	}
	if gs.Params != ws.Params {
		t.Fatalf("%s: params %+v vs %+v", tag, gs.Params, ws.Params)
	}
	if got.Quality() != want.Quality() {
		t.Fatalf("%s: quality %v vs %v", tag, got.Quality(), want.Quality())
	}
	gt, wt := got.Tree(), want.Tree()
	if len(gt) != len(wt) {
		t.Fatalf("%s: tree sizes %d vs %d", tag, len(gt), len(wt))
	}
	for i := range wt {
		if gt[i] != wt[i] {
			t.Fatalf("%s: tree[%d] %d vs %d", tag, i, gt[i], wt[i])
		}
	}
	if got.TreeWeight() != want.TreeWeight() {
		t.Fatalf("%s: tree weight %v vs %v", tag, got.TreeWeight(), want.TreeWeight())
	}
}

// assertAnswersEqual compares answer payloads (not cost metadata — the
// repair's whole point is a different build cost).
func assertAnswersEqual(t *testing.T, tag string, got, want serve.Answer) {
	t.Helper()
	switch w := want.(type) {
	case *serve.SSSPAnswer:
		g := got.(*serve.SSSPAnswer)
		if g.Source != w.Source || len(g.Dist) != len(w.Dist) {
			t.Fatalf("%s: sssp shape %d/%d vs %d/%d", tag, g.Source, len(g.Dist), w.Source, len(w.Dist))
		}
		for v := range w.Dist {
			if g.Dist[v] != w.Dist[v] {
				t.Fatalf("%s: dist[%d] %v vs %v", tag, v, g.Dist[v], w.Dist[v])
			}
		}
	case *serve.MSTAnswer:
		g := got.(*serve.MSTAnswer)
		if g.Weight != w.Weight || len(g.Tree) != len(w.Tree) {
			t.Fatalf("%s: mst %v/%d vs %v/%d", tag, g.Weight, len(g.Tree), w.Weight, len(w.Tree))
		}
		for i := range w.Tree {
			if g.Tree[i] != w.Tree[i] {
				t.Fatalf("%s: mst tree[%d] %d vs %d", tag, i, g.Tree[i], w.Tree[i])
			}
		}
	case *serve.MinCutAnswer:
		g := got.(*serve.MinCutAnswer)
		if g.Value != w.Value || g.Trees != w.Trees || len(g.Side) != len(w.Side) {
			t.Fatalf("%s: mincut %+v vs %+v", tag, g, w)
		}
		for i := range w.Side {
			if g.Side[i] != w.Side[i] {
				t.Fatalf("%s: mincut side[%d] %d vs %d", tag, i, g.Side[i], w.Side[i])
			}
		}
	case *serve.TwoECSSAnswer:
		g := got.(*serve.TwoECSSAnswer)
		if g.Weight != w.Weight || g.LowerBound != w.LowerBound || g.Ratio != w.Ratio || len(g.Edges) != len(w.Edges) {
			t.Fatalf("%s: 2ecss %+v vs %+v", tag, g, w)
		}
		for i := range w.Edges {
			if g.Edges[i] != w.Edges[i] {
				t.Fatalf("%s: 2ecss edge[%d] %d vs %d", tag, i, g.Edges[i], w.Edges[i])
			}
		}
	case *serve.QualityAnswer:
		g := got.(*serve.QualityAnswer)
		if *g != *w {
			t.Fatalf("%s: quality %+v vs %+v", tag, g, w)
		}
	default:
		t.Fatalf("%s: unexpected answer type %T", tag, want)
	}
}

func TestDifferentialRepairVsRebuild(t *testing.T) {
	const n = 480
	const diameter = 6
	sizes := []int{1, 64, 4096}
	if testing.Short() {
		sizes = []int{1, 64}
	}
	for _, fam := range diffFamilies() {
		for si, size := range sizes {
			t.Run(fmt.Sprintf("%s/delta=%d", fam.name, size), func(t *testing.T) {
				seed := int64(1000*si + 7)
				genRng := rand.New(rand.NewSource(seed))
				g0 := fam.make(n, genRng)
				w0 := graph.NewUniformWeights(g0.NumEdges(), genRng)
				parts, err := gen.VoronoiParts(g0, 12, genRng)
				if err != nil {
					t.Fatal(err)
				}
				buildRng := func() *rand.Rand { return rand.New(rand.NewSource(seed + 1)) }
				base, err := serve.NewSnapshot(g0, w0, parts, serve.SnapshotOptions{
					Rng: buildRng(), Diameter: diameter, LogFactor: 0.3,
				})
				if err != nil {
					t.Fatal(err)
				}

				// One delta of the requested size. diffDelta never
				// disconnects a part, so ApplyDelta has no reason to fail.
				d := diffDelta(g0, partOfTable(g0.NumNodes(), parts), size, rand.New(rand.NewSource(seed+2)))
				if d.Size() == 0 {
					t.Fatalf("size %d: empty delta", size)
				}
				repaired, err := serve.ApplyDelta(context.Background(), base, d, serve.DeltaOptions{})
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				g1, w1, _, err := graph.ApplyDelta(g0, w0, d)
				if err != nil {
					t.Fatal(err)
				}

				if repaired.Generation() != 1 || repaired.Repair() == nil {
					t.Fatalf("size %d: generation %d, repair %v", size, repaired.Generation(), repaired.Repair())
				}
				// Touched names exactly the parts whose shortcut edges
				// changed. On the sparse families a delta reaches only some
				// parts, so the per-part dilation reuse is exercised (the
				// dense ER family touches nearly all of them).
				touched := repaired.Repair().Touched
				if want := changedByEndpoints(base, repaired); !slices.Equal(touched, want) {
					t.Fatalf("size %d: touched %v, want %v", size, touched, want)
				}
				if fam.name != "er" && len(touched) >= len(parts) {
					t.Fatalf("size %d: %d of %d parts touched, want fewer", size, len(touched), len(parts))
				}
				rebuilt, err := serve.NewSnapshot(g1, w1, parts, serve.SnapshotOptions{
					Rng: buildRng(), Diameter: diameter, LogFactor: 0.3,
				})
				if err != nil {
					t.Fatal(err)
				}
				tag := fam.name
				assertSnapshotsEqual(t, tag, repaired, rebuilt)

				// Query-for-query: identical servers over both snapshots.
				mk := func(sn *serve.Snapshot) *serve.Server {
					return serve.NewServer(sn, serve.ServerOptions{Executors: 2, Seed: 99})
				}
				srvR, srvW := mk(repaired), mk(rebuilt)
				queries := []serve.Query{
					serve.SSSPQuery{Source: 0},
					serve.SSSPQuery{Source: graph.NodeID(g1.NumNodes() / 2)},
					serve.SSSPQuery{Source: graph.NodeID(g1.NumNodes() - 1)},
					serve.MSTQuery{},
					serve.MinCutQuery{},
					serve.MinCutQuery{Eps: 0.5},
				}
				queries = append(queries, everyPartQuality(parts)...)
				// 2-ECSS is only defined on 2-edge-connected graphs; the
				// sparser families keep bridges, so gate the query on the
				// post-delta graph's shape (identically visible to both
				// sides).
				if len(twoecss.Bridges(g1, allEdges(g1))) == 0 {
					queries = append(queries, serve.TwoECSSQuery{})
				}
				for qi, q := range queries {
					ar, err := srvR.Serve(q)
					if err != nil {
						t.Fatalf("%s q%d: repaired: %v", tag, qi, err)
					}
					aw, err := srvW.Serve(q)
					if err != nil {
						t.Fatalf("%s q%d: rebuilt: %v", tag, qi, err)
					}
					assertAnswersEqual(t, tag, ar, aw)
				}
				// The batch path (root dedup + walks) must agree pairwise
				// too.
				br, err := srvR.ServeBatch(queries)
				if err != nil {
					t.Fatalf("%s: repaired batch: %v", tag, err)
				}
				bw, err := srvW.ServeBatch(queries)
				if err != nil {
					t.Fatalf("%s: rebuilt batch: %v", tag, err)
				}
				for i := range queries {
					assertAnswersEqual(t, tag, br[i], bw[i])
				}
			})
		}
	}
}

// TestDifferentialDeltaChain walks a multi-step delta chain, comparing
// against from-scratch rebuilds at every step: updates compose.
func TestDifferentialDeltaChain(t *testing.T) {
	const n = 300
	seed := int64(77)
	genRng := rand.New(rand.NewSource(seed))
	var g0 *graph.Graph
	for {
		g0 = gen.ErdosRenyi(n, 8/float64(n), genRng)
		if graph.IsConnected(g0) {
			break
		}
	}
	w0 := graph.NewUniformWeights(g0.NumEdges(), genRng)
	parts, err := gen.VoronoiParts(g0, 8, genRng)
	if err != nil {
		t.Fatal(err)
	}
	buildRng := func() *rand.Rand { return rand.New(rand.NewSource(seed + 1)) }
	snap, err := serve.NewSnapshot(g0, w0, parts, serve.SnapshotOptions{
		Rng: buildRng(), Diameter: 5, LogFactor: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, w := g0, w0
	deltaRng := rand.New(rand.NewSource(seed + 2))
	partOf := partOfTable(g0.NumNodes(), parts)
	for step := 1; step <= 4; step++ {
		d := diffDelta(g, partOf, 16, deltaRng)
		next, err := serve.ApplyDelta(context.Background(), snap, d, serve.DeltaOptions{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g2, w2, _, err := graph.ApplyDelta(g, w, d)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := serve.NewSnapshot(g2, w2, parts, serve.SnapshotOptions{
			Rng: buildRng(), Diameter: 5, LogFactor: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSnapshotsEqual(t, "chain", next, rebuilt)
		if next.Generation() != uint64(step) {
			t.Fatalf("step %d: generation %d, want %d", step, next.Generation(), step)
		}
		snap, g, w = next, g2, w2
	}
}
