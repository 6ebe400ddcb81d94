package mincut

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
)

// ApproxOptions configures the tree-packing approximation.
type ApproxOptions struct {
	// Rng is required.
	Rng *rand.Rand
	// Trees is the number of greedily packed spanning trees (0 = ⌈2·log2 n⌉).
	Trees int
	// Diameter and LogFactor configure the shortcut-MST used to pack each
	// tree (0 = estimate / paper default).
	Diameter  int
	LogFactor float64
	// Distributed charges simulated rounds by computing each packed tree
	// through the distributed shortcut-MST (true) or centrally via Kruskal
	// with zero round accounting (false, for fast correctness tests).
	Distributed bool
	// FirstTree, when non-empty, is a prebuilt spanning tree (a serving
	// snapshot's shortcut-MST) used as packed tree #1: its construction cost
	// was paid once at snapshot build, so it is neither recomputed nor
	// charged here. Loads 1..k-1 then diversify the remaining trees exactly
	// as in the cold path.
	FirstTree []graph.EdgeID
	// Ctx, when non-nil, cancels the computation cooperatively: checked
	// between packed trees and, when Distributed, at every simulated round
	// / drain step of each tree's MST.
	Ctx context.Context
}

// ApproxResult is the outcome of Approx.
type ApproxResult struct {
	// Value is the best (smallest) 1-respecting cut weight found. With
	// Ω(λ log n) packed trees it is at most 2·(1+ε) times the minimum cut
	// w.h.p., and never below it (every reported value is a real cut).
	Value float64
	// Side is one side of the best cut found.
	Side []graph.NodeID
	// Trees is the number of packed trees.
	Trees int
	// Cost is the unified v2 accounting: Rounds/Messages aggregate the
	// simulated distributed cost (zero when Distributed is false). Field
	// promotion keeps the v1 accessors intact.
	cost.Cost
}

// DefaultTrees is the packed-tree count Approx uses when Trees is unset:
// ⌈2·log2 n⌉ (the Ω(λ log n) shape of Karger's theorem at λ-independent
// scale). Exported so callers layering their own knobs on top (the serving
// layer's MinCutQuery.Eps) stay in lockstep with the cold path.
func DefaultTrees(n int) int {
	k := int(math.Ceil(2 * math.Log2(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// MinEps is the smallest positive approximation knob ε CheckEps accepts.
// The packed-tree count grows as 1/ε, so an arbitrarily small ε buys
// unbounded work, and far enough below this floor the count overflows int.
const MinEps = 0.01

// CheckEps validates an approximation knob ε: 0 (the default packing) or a
// finite value ≥ MinEps. NaN, ±Inf, negative and too-small values fail. It
// is the one rule behind the facade's WithEps, the serving layer's
// MinCutQuery.Eps and the gateway's decode; callers wrap the error in
// their own operation's KindInvalidInput.
func CheckEps(eps float64) error {
	if eps == 0 || (eps >= MinEps && !math.IsInf(eps, 1)) {
		return nil
	}
	return fmt.Errorf("eps %v is neither 0 nor a finite value >= %v (the tree count grows as 1/eps; use 0 for the default packing)", eps, MinEps)
}

// TreesForEps maps an approximation knob ε to a packed-tree count:
// DefaultTrees(n) scaled by 1/ε, floor 1 — the single rule shared by the
// facade's WithEps and the serving layer's MinCutQuery.Eps, so the two
// paths stay bit-equivalent. Callers validate ε with CheckEps first.
func TreesForEps(n int, eps float64) int {
	k := DefaultTrees(n)
	if eps > 0 {
		k = int(math.Ceil(float64(k) / eps))
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Approx approximates the global minimum cut by greedy spanning tree packing
// with 1-respecting cut evaluation:
//
//  1. Pack k trees: each is a minimum spanning tree under edge loads (how
//     often the edge was used by earlier trees), computed through the
//     shortcut-MST framework; loads increment on chosen edges.
//  2. For every tree edge, evaluate the cut defined by the subtree below it
//     (a "1-respecting" cut) via subtree aggregation, and keep the best.
//
// Karger's theorem guarantees that with Ω(λ log n) trees, the minimum cut
// 2-respects some packed tree w.h.p.; checking 1-respecting cuts yields a
// ≤ 2·(1+ε) approximation. All reported cuts are genuine cuts, so Value is
// always an upper bound on the true minimum.
//
// Each tree costs near-linear time: the centralized packing is a radix-
// sorted Kruskal (mst.KruskalScratch), and the evaluation finds every
// edge's tree LCA by Tarjan's offline algorithm. One MST scratch, one
// evaluation scratch and one load-weight buffer serve every tree of a call.
func Approx(g *graph.Graph, w graph.Weights, opts ApproxOptions) (*ApproxResult, error) {
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
	// One MST scratch shared by every packed tree's Kruskal or distributed
	// MST; neither keeps a reference to packW, so one buffer serves all.
	var scratch mst.Scratch
	packW := make(graph.Weights, g.NumEdges())
	cs := newCutScratch(g, w)
	for t := 0; t < k; t++ {
		if err := reproerr.CtxCheck(op, opts.Ctx); err != nil {
			return nil, err
		}
		var tree []graph.EdgeID
		if t == 0 && len(opts.FirstTree) > 0 {
			tree = opts.FirstTree
		} else {
			// Pack the next tree: MST under load-based weights (uniform
			// noise breaks ties so repeated trees diversify).
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
					return nil, reproerr.Errorf(op, reproerr.KindOf(err), "packing tree %d: %w", t, err)
				}
				tree = dres.Tree
				res.AddSim(dres.Rounds, dres.Messages)
				res.MergeSchedStats(dres.SchedStats)
			} else {
				var err error
				tree, err = mst.KruskalScratch(g, packW, &scratch)
				if err != nil {
					return nil, reproerr.Errorf(op, reproerr.KindOf(err), "packing tree %d: %w", t, err)
				}
			}
		}
		for _, e := range tree {
			load[e]++
		}
		// The cut-evaluation convergecast is one aggregation over the tree,
		// O(shortcut quality) rounds through the framework; the MST
		// accounting above already covers that bound.
		if value, side := cs.bestOneRespectingCut(tree, res.Value); value < res.Value {
			res.Value = value
			res.Side = side
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}

// cutScratch evaluates the 1-respecting cuts of one tree after another on a
// fixed graph and weights, reusing its buffers across trees.
type cutScratch struct {
	g *graph.Graph
	w graph.Weights
	// wdeg is every node's weighted degree, summed once per Approx call.
	wdeg []float64
	// The tree's adjacency as a CSR, neighbours in tree order: node u's
	// are nbr[off[u]:off[u+1]].
	off []int32
	nbr []graph.NodeID
	// The BFS from node 0: order lists the reached nodes, parents before
	// children; parent[root] = root and parent[v] = -1 for unreached v; the
	// children of order[i] are order[kid[i]:kid[i+1]].
	parent []graph.NodeID
	order  []graph.NodeID
	kid    []int32
	// link is the union-find forest of Tarjan's offline LCA; lca[e] is edge
	// e's tree LCA, valid when both its endpoints are reached.
	link []graph.NodeID
	lca  []graph.NodeID
	// subDeg and subLca are the subtree sums of wdeg and of the LCA weights.
	subDeg, subLca []float64
	stack          []dfsFrame
}

// dfsFrame is one node on the offline-LCA DFS stack, by BFS position, with
// the BFS position of its next unvisited child.
type dfsFrame struct{ at, next int32 }

func newCutScratch(g *graph.Graph, w graph.Weights) *cutScratch {
	n, m := g.NumNodes(), g.NumEdges()
	cs := &cutScratch{
		g: g, w: w,
		wdeg:   make([]float64, n),
		off:    make([]int32, n+1),
		parent: make([]graph.NodeID, n),
		order:  make([]graph.NodeID, 0, n),
		kid:    make([]int32, n+1),
		link:   make([]graph.NodeID, n),
		lca:    make([]graph.NodeID, m),
		subDeg: make([]float64, n),
		subLca: make([]float64, n),
	}
	for e := 0; e < m; e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		cs.wdeg[u] += w[e]
		cs.wdeg[v] += w[e]
	}
	return cs
}

// bestOneRespectingCut roots the tree at node 0 and evaluates, for every
// tree edge, the weight of the cut separating the subtree below it. Uses
// the identity
//
//	w(δ(S_v)) = Σ_{x∈S_v} wdeg(x) − 2·w(E[S_v]),
//
// where E[S_v] are edges whose tree-LCA lies in the subtree of v. It
// returns the smallest such cut, the first in BFS order on ties, and, only
// when that value is below beat, the nodes of its side; otherwise nil.
func (cs *cutScratch) bestOneRespectingCut(tree []graph.EdgeID, beat float64) (float64, []graph.NodeID) {
	g, w := cs.g, cs.w
	n := g.NumNodes()

	// Tree adjacency: count, prefix, fill in tree order (each fill advances
	// off[u] to u's end), then shift the ends back into starts.
	off := cs.off
	clear(off)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		off[u+1]++
		off[v+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	cs.nbr = slices.Grow(cs.nbr[:0], int(off[n]))[:off[n]]
	nbr := cs.nbr
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		nbr[off[u]] = v
		off[u]++
		nbr[off[v]] = u
		off[v]++
	}
	copy(off[1:], off[:n])
	off[0] = 0

	// BFS from the root; a node's children are appended together, so they
	// sit contiguously in order.
	const root = graph.NodeID(0)
	parent := cs.parent
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	order := append(cs.order[:0], root)
	kid := cs.kid
	for head := 0; head < len(order); head++ {
		u := order[head]
		kid[head] = int32(len(order))
		for _, v := range nbr[off[u]:off[u+1]] {
			if parent[v] == -1 {
				parent[v] = u
				order = append(order, v)
			}
		}
	}
	kid[len(order)] = int32(len(order))
	cs.order = order

	cs.offlineLCA()

	// LCA contributions in edge-ID order, so every float sum keeps its
	// order; an edge with an endpoint outside the tree's component has none.
	subLca := cs.subLca
	clear(subLca)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if parent[u] == -1 || parent[v] == -1 {
			continue
		}
		subLca[cs.lca[e]] += w[e]
	}
	// Accumulate subtree sums bottom-up (reverse BFS order).
	subDeg := cs.subDeg
	copy(subDeg, cs.wdeg)
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		p := parent[v]
		subDeg[p] += subDeg[v]
		subLca[p] += subLca[v]
	}

	best := math.Inf(1)
	bestAt := -1
	for i := 1; i < len(order); i++ { // every non-root defines the cut below it
		v := order[i]
		if cut := subDeg[v] - 2*subLca[v]; cut < best {
			best = cut
			bestAt = i
		}
	}
	if !(best < beat) { // also when no cut was found: best is +Inf
		return best, nil
	}
	// Materialize the winning side (subtree of order[bestAt]) depth first,
	// children pushed in adjacency order.
	var side []graph.NodeID
	stack := []int32{int32(bestAt)}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		side = append(side, order[i])
		for c := kid[i]; c < kid[i+1]; c++ {
			stack = append(stack, c)
		}
	}
	return best, side
}

// offlineLCA stores every edge's tree LCA in cs.lca by Tarjan's offline
// algorithm over a DFS of the BFS-rooted tree: when u finishes, each edge
// to a finished v gets LCA find(v), the lowest ancestor of v still on the
// DFS stack; then u links to its parent. A node is finished exactly when it
// is linked away from itself (no edge is a self-loop, and the root finishes
// last).
func (cs *cutScratch) offlineLCA() {
	g, order, kid, parent, link, lca := cs.g, cs.order, cs.kid, cs.parent, cs.link, cs.lca
	for i := range link {
		link[i] = graph.NodeID(i)
	}
	find := func(x graph.NodeID) graph.NodeID {
		for link[x] != x {
			link[x] = link[link[x]]
			x = link[x]
		}
		return x
	}
	stack := append(cs.stack[:0], dfsFrame{at: 0, next: kid[0]})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < kid[top.at+1] {
			c := top.next
			top.next++
			stack = append(stack, dfsFrame{at: c, next: kid[c]})
			continue
		}
		u := order[top.at]
		stack = stack[:len(stack)-1]
		g.Arcs(u, func(_ int32, v graph.NodeID, e graph.EdgeID) bool {
			if link[v] != v {
				lca[e] = find(v)
			}
			return true
		})
		link[u] = parent[u]
	}
	cs.stack = stack
}
