// Package twoecss implements the minimum-weight two-edge-connected spanning
// subgraph (2-ECSS) approximation of Corollary 4.3: the algorithm is MST
// phases through shortcuts (per [DG19]); we realize it as MST + greedy
// bridge-cover augmentation and report measured weight ratios against a
// certified lower bound (see DESIGN.md substitutions).
package twoecss

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
)

// Bridges returns the bridge edges of the subgraph formed by the given edge
// set, using an iterative DFS lowlink computation.
func Bridges(g *graph.Graph, edges []graph.EdgeID) []graph.EdgeID {
	n := g.NumNodes()
	type arc struct {
		to graph.NodeID
		e  graph.EdgeID
	}
	adj := make([][]arc, n)
	for _, e := range edges {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], arc{v, e})
		adj[v] = append(adj[v], arc{u, e})
	}
	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []graph.EdgeID
	var timer int32
	type frame struct {
		u      graph.NodeID
		viaE   graph.EdgeID // edge used to enter u (-1 at roots)
		childI int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{u: graph.NodeID(s), viaE: -1}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.childI < len(adj[f.u]) {
				a := adj[f.u][f.childI]
				f.childI++
				if a.e == f.viaE {
					continue // don't traverse the entry edge backwards
				}
				if disc[a.to] == -1 {
					disc[a.to] = timer
					low[a.to] = timer
					timer++
					stack = append(stack, frame{u: a.to, viaE: a.e})
				} else if disc[a.to] < low[f.u] {
					low[f.u] = disc[a.to]
				}
				continue
			}
			// Post-visit: propagate lowlink to parent.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.u] < low[p.u] {
					low[p.u] = low[f.u]
				}
				if low[f.u] > disc[p.u] {
					bridges = append(bridges, f.viaE)
				}
			}
		}
	}
	return bridges
}

// IsTwoEdgeConnected reports whether the subgraph given by edges spans g,
// is connected, and has no bridges.
func IsTwoEdgeConnected(g *graph.Graph, edges []graph.EdgeID) bool {
	n := g.NumNodes()
	if n < 2 {
		return true
	}
	uf := mst.NewUnionFind(n)
	for _, e := range edges {
		u, v := g.EdgeEndpoints(e)
		uf.Union(u, v)
	}
	if uf.Count() != 1 {
		return false
	}
	return len(Bridges(g, edges)) == 0
}

// Options configures Approx.
type Options struct {
	// Rng drives the distributed shortcut-MST. Required unless a prebuilt
	// Tree is supplied (the one purely deterministic member of the family);
	// the requirement and its error are the shared v2 validation every
	// sibling package uses.
	Rng *rand.Rand
	// Diameter / LogFactor as in the shortcut framework.
	Diameter  int
	LogFactor float64
	// Distributed charges simulated rounds via the distributed shortcut-MST
	// for the tree phase (plus one equivalent phase for the augmentation,
	// matching [DG19]'s MST-like phase structure).
	Distributed bool
	// Tree, when non-empty, is a prebuilt minimum spanning tree (a serving
	// snapshot's shortcut-MST): the tree phase is skipped entirely — only
	// the greedy bridge-cover augmentation runs, deterministically — and
	// Rng is not required. Rounds/Messages stay zero (the tree's cost was
	// charged at snapshot build).
	Tree []graph.EdgeID
	// Ctx, when non-nil, cancels the underlying distributed MST
	// cooperatively at every simulated round / drain step.
	Ctx context.Context
}

// Result is the outcome of Approx.
type Result struct {
	Edges  []graph.EdgeID
	Weight float64
	// LowerBound is a certified lower bound on the optimal 2-ECSS weight
	// (the MST weight — every 2-ECSS is a connected spanning subgraph).
	LowerBound float64
	// Cost is the unified v2 accounting (field promotion keeps the v1
	// res.Rounds / res.Messages accessors intact).
	cost.Cost
}

// Ratio returns Weight / LowerBound, an upper bound on the true
// approximation factor.
func (r *Result) Ratio() float64 {
	if r.LowerBound == 0 {
		return 1
	}
	return r.Weight / r.LowerBound
}

// Approx computes a 2-edge-connected spanning subgraph of a 2-edge-connected
// graph: an MST (through shortcuts when Distributed) plus a greedy cover of
// all tree bridges by ascending-weight non-tree edges (each non-tree edge
// covers its tree path; a union-find skips already-covered segments). It
// errors if g itself is not 2-edge-connected.
func Approx(g *graph.Graph, w graph.Weights, opts Options) (*Result, error) {
	const op = "twoecss.Approx"
	if len(opts.Tree) == 0 {
		if err := reproerr.RequireRng(op, opts.Rng); err != nil {
			return nil, err
		}
	}
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New(op, reproerr.KindInvalidInput, err)
	}
	start := time.Now()
	n := g.NumNodes()
	res := &Result{}

	var tree []graph.EdgeID
	if len(opts.Tree) > 0 {
		tree = opts.Tree
	} else if opts.Distributed {
		mres, err := mst.Distributed(g, w, mst.DistOptions{
			Rng:       opts.Rng,
			Diameter:  opts.Diameter,
			LogFactor: opts.LogFactor,
			Ctx:       opts.Ctx,
		})
		if err != nil {
			return nil, reproerr.Errorf(op, reproerr.KindOf(err), "%w", err)
		}
		tree = mres.Tree
		// [DG19] structure: the augmentation is one more MST-like phase;
		// charge it at the same cost.
		res.AddSim(2*mres.Rounds, 2*mres.Messages)
		res.MergeSchedStats(mres.SchedStats)
	} else {
		var err error
		tree, err = mst.Kruskal(g, w)
		if err != nil {
			return nil, reproerr.Errorf(op, reproerr.KindOf(err), "%w", err)
		}
	}
	if len(tree) != n-1 {
		return nil, reproerr.Invalid(op, "graph is disconnected")
	}
	res.LowerBound = w.Total(tree)

	// Root the tree, then cover: a non-tree edge {u,v} covers every tree
	// edge on the u-v tree path. Process non-tree edges by ascending weight;
	// "jump" pointers skip covered prefixes so total work is near-linear.
	parent := make([]graph.NodeID, n)
	depth := make([]int32, n)
	adj := make([][]struct {
		to graph.NodeID
		e  graph.EdgeID
	}, n)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], struct {
			to graph.NodeID
			e  graph.EdgeID
		}{v, e})
		adj[v] = append(adj[v], struct {
			to graph.NodeID
			e  graph.EdgeID
		}{u, e})
	}
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	order := []graph.NodeID{0}
	depth[0] = 0
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, a := range adj[u] {
			if depth[a.to] == -1 {
				depth[a.to] = depth[u] + 1
				parent[a.to] = u
				order = append(order, a.to)
			}
		}
	}
	// jump[v]: highest uncovered ancestor reachable from v by covered edges
	// (union-find style with path compression on the tree).
	jump := make([]graph.NodeID, n)
	for i := range jump {
		jump[i] = graph.NodeID(i)
	}
	var find func(v graph.NodeID) graph.NodeID
	find = func(v graph.NodeID) graph.NodeID {
		for jump[v] != v {
			jump[v] = jump[jump[v]]
			v = jump[v]
		}
		return v
	}

	inTree := graph.NewBitset(g.NumEdges())
	for _, e := range tree {
		inTree.Set(e)
	}
	nonTree := make([]graph.EdgeID, 0, g.NumEdges()-len(tree))
	for e := 0; e < g.NumEdges(); e++ {
		if !inTree.Has(graph.EdgeID(e)) {
			nonTree = append(nonTree, graph.EdgeID(e))
		}
	}
	sort.Slice(nonTree, func(i, j int) bool {
		if w[nonTree[i]] != w[nonTree[j]] {
			return w[nonTree[i]] < w[nonTree[j]]
		}
		return nonTree[i] < nonTree[j]
	})

	chosen := make([]graph.EdgeID, 0, len(tree)*2)
	chosen = append(chosen, tree...)
	for _, e := range nonTree {
		u, v := g.EdgeEndpoints(e)
		x, y := find(u), find(v)
		used := false
		for x != y {
			if depth[x] < depth[y] {
				x, y = y, x
			}
			// Cover the tree edge above x.
			jump[x] = parent[x]
			used = true
			x = find(x)
		}
		if used {
			chosen = append(chosen, e)
		}
	}
	// Any tree edge still uncovered is a bridge of G itself, so the final
	// 2-edge-connectivity check doubles as input validation.
	if !IsTwoEdgeConnected(g, chosen) {
		return nil, reproerr.Invalid(op, "input graph is not 2-edge-connected")
	}
	res.Edges = chosen
	res.Weight = w.Total(chosen)
	res.Wall = time.Since(start)
	return res, nil
}
