// Package mst implements minimum spanning tree algorithms: centralized
// baselines (Kruskal, Prim, Borůvka) and the distributed Borůvka-through-
// shortcuts algorithm of the Ghaffari–Haeupler framework [GH16, Gha17] that
// Corollary 1.2 instantiates with the paper's shortcuts — MST in ˜O(kD)
// rounds on constant-diameter graphs.
package mst

import (
	"math"

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
	u := &UnionFind{}
	u.reset(n)
	return u
}

// reset makes u n singleton sets, reusing its arrays when they are large
// enough.
func (u *UnionFind) reset(n int) {
	u.parent, u.rank, u.count = resize(u.parent, n), resize(u.rank, n), n
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
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

// Kruskal computes the MST (or minimum spanning forest) edge set by
// greedily merging components in (weight, EdgeID) order. The order comes
// from a stable LSD radix sort over the weights' IEEE-754 bits, not from a
// comparison sort: Validate admits only positive, non-NaN weights, whose
// bits order as their values do, and edges enter the sort by ascending ID,
// so equal weights keep ID order. It stops once n−1 edges are in. With
// distinct weights the MST is unique, making Kruskal the correctness oracle
// for the distributed algorithm; Prim, a heap over the same order, stays
// the independent second oracle.
func Kruskal(g *graph.Graph, w graph.Weights) ([]graph.EdgeID, error) {
	var scratch Scratch
	return KruskalScratch(g, w, &scratch)
}

// KruskalScratch is Kruskal with caller-owned reusable state: the sort keys
// and the union-find live in scratch, so a caller that packs many trees in a
// row (mincut.Approx) allocates them once. The returned tree is freshly
// allocated and never aliases scratch. Results are identical to Kruskal.
func KruskalScratch(g *graph.Graph, w graph.Weights, scratch *Scratch) ([]graph.EdgeID, error) {
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New("mst", reproerr.KindInvalidInput, err)
	}
	n := g.NumNodes()
	tree := make([]graph.EdgeID, 0, max(n-1, 0))
	if n < 2 {
		return tree, nil
	}
	order := scratch.radixOrder(w)
	uf := &scratch.uf
	uf.reset(n)
	for _, e := range order {
		u, v := g.EdgeEndpoints(e)
		if uf.Union(u, v) {
			tree = append(tree, e)
			if len(tree) == n-1 {
				break
			}
		}
	}
	return tree, nil
}

// radixBits is the digit width of Kruskal's radix sort: 6 digits cover the
// 64 key bits, and one digit's 2048-entry count table (8 KB) stays in L1.
const radixBits = 11

// radixOrder returns the edge IDs sorted by (w[e], e), in scratch-owned
// memory. It is a stable LSD radix sort of the weights' bits that skips
// every digit all keys share; the IDs start ascending, so stability keeps
// equal weights in ID order.
func (s *Scratch) radixOrder(w graph.Weights) []graph.EdgeID {
	m := len(w)
	const digits = (64 + radixBits - 1) / radixBits
	const mask = 1<<radixBits - 1
	s.keys, s.keysTmp = resize(s.keys, m), resize(s.keysTmp, m)
	s.ids, s.idsTmp = resize(s.ids, m), resize(s.idsTmp, m)
	var count [digits][1 << radixBits]int32
	for e, x := range w {
		k := math.Float64bits(x)
		s.keys[e] = k
		s.ids[e] = graph.EdgeID(e)
		for d := range count {
			count[d][k>>(d*radixBits)&mask]++
		}
	}
	keys, ids, keysTmp, idsTmp := s.keys, s.ids, s.keysTmp, s.idsTmp
	for d := range count {
		c := &count[d]
		shift := d * radixBits
		if m == 0 || c[keys[0]>>shift&mask] == int32(m) {
			continue // every key shares this digit
		}
		var sum int32
		for i, x := range c {
			c[i] = sum
			sum += x
		}
		for i, k := range keys {
			j := c[k>>shift&mask]
			c[k>>shift&mask] = j + 1
			keysTmp[j], idsTmp[j] = k, ids[i]
		}
		keys, keysTmp = keysTmp, keys
		ids, idsTmp = idsTmp, ids
	}
	return ids
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
