// Package mst implements minimum spanning tree algorithms: centralized
// baselines (Kruskal, Prim, Borůvka) and the distributed Borůvka-through-
// shortcuts algorithm of the Ghaffari–Haeupler framework [GH16, Gha17] that
// Corollary 1.2 instantiates with the paper's shortcuts — MST in ˜O(kD)
// rounds on constant-diameter graphs.
package mst

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// UnionFind is a standard disjoint-set forest with path compression and
// union by rank.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int
}

// NewUnionFind returns a UnionFind over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int8, n), count: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b, reporting whether a merge happened.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return true
}

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// Kruskal computes the MST (or minimum spanning forest) edge set by sorting
// edges and greedily merging components. With distinct weights the MST is
// unique, making Kruskal the correctness oracle for the distributed
// algorithm.
func Kruskal(g *graph.Graph, w graph.Weights) ([]graph.EdgeID, error) {
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New("mst", reproerr.KindInvalidInput, err)
	}
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
	uf := NewUnionFind(g.NumNodes())
	tree := make([]graph.EdgeID, 0, g.NumNodes()-1)
	for _, e := range order {
		u, v := g.EdgeEndpoints(e)
		if uf.Union(u, v) {
			tree = append(tree, e)
		}
	}
	return tree, nil
}

// Prim computes the MST of a connected graph starting from node 0 using a
// binary heap. It serves as an independent second oracle.
func Prim(g *graph.Graph, w graph.Weights) ([]graph.EdgeID, error) {
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New("mst", reproerr.KindInvalidInput, err)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, nil
	}
	inTree := make([]bool, n)
	h := &edgeHeap{w: w}
	pushArcs := func(u graph.NodeID) {
		g.Arcs(u, func(_ int32, v graph.NodeID, e graph.EdgeID) bool {
			if !inTree[v] {
				h.push(heapItem{edge: e, to: v})
			}
			return true
		})
	}
	inTree[0] = true
	pushArcs(0)
	tree := make([]graph.EdgeID, 0, n-1)
	for h.len() > 0 {
		item := h.pop()
		if inTree[item.to] {
			continue
		}
		inTree[item.to] = true
		tree = append(tree, item.edge)
		pushArcs(item.to)
	}
	return tree, nil
}

type heapItem struct {
	edge graph.EdgeID
	to   graph.NodeID
}

// edgeHeap is a minimal binary min-heap keyed by edge weight with EdgeID
// tie-breaking (deterministic with duplicate weights).
type edgeHeap struct {
	w     graph.Weights
	items []heapItem
}

func (h *edgeHeap) len() int { return len(h.items) }

func (h *edgeHeap) less(i, j int) bool {
	wi, wj := h.w[h.items[i].edge], h.w[h.items[j].edge]
	if wi != wj {
		return wi < wj
	}
	return h.items[i].edge < h.items[j].edge
}

func (h *edgeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *edgeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
