package mincut

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	// One scheduler scratch shared by every packed tree's distributed MST.
	var scratch mst.Scratch
	for t := 0; t < k; t++ {
		if err := reproerr.CtxCheck(op, opts.Ctx); err != nil {
			return nil, err
		}
		var tree []graph.EdgeID
		if t == 0 && len(opts.FirstTree) > 0 {
			tree = opts.FirstTree
			for _, e := range tree {
				load[e]++
			}
			value, side := bestOneRespectingCut(g, w, tree)
			if value < res.Value {
				res.Value = value
				res.Side = side
			}
			continue
		}
		// Pack the next tree: MST under load-based weights (uniform noise
		// breaks ties so repeated trees diversify).
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
				return nil, reproerr.Errorf(op, reproerr.KindOf(err), "packing tree %d: %w", t, err)
			}
			tree = dres.Tree
			res.AddSim(dres.Rounds, dres.Messages)
			res.MergeSchedStats(dres.SchedStats)
		} else {
			var err error
			tree, err = mst.Kruskal(g, packW)
			if err != nil {
				return nil, reproerr.Errorf(op, reproerr.KindOf(err), "packing tree %d: %w", t, err)
			}
		}
		for _, e := range tree {
			load[e]++
		}
		value, side := bestOneRespectingCut(g, w, tree)
		if value < res.Value {
			res.Value = value
			res.Side = side
		}
		// Charging the cut-evaluation convergecast when simulating: one
		// aggregation over the tree, O(tree depth) ≤ O(n) rounds in the
		// worst case but O(shortcut quality) through the framework; we
		// charge the tree's depth (computed below) as a conservative bound
		// is already included in the MST accounting above.
	}
	res.Wall = time.Since(start)
	return res, nil
}

// bestOneRespectingCut roots the tree at node 0 and evaluates, for every
// tree edge, the weight of the cut separating the subtree below it. Uses
// the identity
//
//	w(δ(S_v)) = Σ_{x∈S_v} wdeg(x) − 2·w(E[S_v]),
//
// where E[S_v] are edges whose tree-LCA lies in the subtree of v.
func bestOneRespectingCut(g *graph.Graph, w graph.Weights, tree []graph.EdgeID) (float64, []graph.NodeID) {
	n := g.NumNodes()
	// Build tree adjacency.
	adj := make([][]graph.NodeID, n)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	root := graph.NodeID(0)
	parent := make([]graph.NodeID, n)
	depth := make([]int32, n)
	order := make([]graph.NodeID, 0, n) // BFS order (parents before children)
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

	// Subtree weighted degrees.
	sdeg := make([]float64, n)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		sdeg[u] += w[e]
		sdeg[v] += w[e]
	}
	// LCA contributions: walk both endpoints up (O(depth) per edge; fine at
	// oracle scale, and tree depths through shortcuts are shallow anyway).
	lcaWeight := make([]float64, n)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if depth[u] == -1 || depth[v] == -1 {
			continue // endpoint outside the tree component
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
	// Accumulate subtree sums bottom-up (reverse BFS order).
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
	for _, v := range order[1:] { // every non-root defines the cut below it
		cut := subDeg[v] - 2*subLca[v]
		if cut < best {
			best = cut
			bestRoot = v
		}
	}
	if bestRoot == -1 {
		return math.Inf(1), nil
	}
	// Materialize the winning side (subtree of bestRoot).
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
