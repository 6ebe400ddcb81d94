package sssp

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// TreeIndex is the immutable, query-reentrant form of a spanning forest: a
// rooted BFS order of every component, derived once from the forest's edge
// list (at snapshot build, delta and load time in the serving layer) and
// then shared read-only by any number of concurrent per-source distance
// queries. It is the prebuilt state TreeApprox derives internally on every
// call; serving builds it once and amortizes it across queries. The edge
// list is its only input: nothing of the index is persisted.
type TreeIndex struct {
	// Position i holds node ord[i], whose parent is par[i] (-1 at a root)
	// across an edge of weight pw[i]; pos inverts ord. Each component
	// occupies a contiguous run of positions that starts at its root, its
	// smallest node ID; comp lists the runs' start positions, then n.
	// height is the largest depth of any node below its root.
	ord    []graph.NodeID
	pos    []int32
	par    []graph.NodeID
	pw     []float64
	comp   []int32
	height int32
}

// NewTreeIndex indexes the given tree edges of g under weights w. The edges
// must form a forest (callers pass a spanning tree or forest produced by the
// MST machinery); an edge ID or an endpoint out of range, a cycle or a
// repeated edge is rejected with KindInvalidInput. The endpoints are
// checked because a graph loaded without verification is not known to have
// valid ones.
func NewTreeIndex(g *graph.Graph, w graph.Weights, tree []graph.EdgeID) (*TreeIndex, error) {
	const op = "sssp.NewTreeIndex"
	n, m := g.NumNodes(), g.NumEdges()
	// The forest's adjacency in CSR form with per-arc weights: the input of
	// the rooted order, dropped once the order is derived.
	off := make([]int32, n+1)
	for _, e := range tree {
		if e < 0 || int(e) >= m {
			return nil, reproerr.Invalid(op, "tree edge %d out of range [0,%d)", e, m)
		}
		u, v := g.EdgeEndpoints(e)
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, reproerr.Invalid(op, "tree edge %d: endpoints {%d,%d} out of range [0,%d)", e, u, v, n)
		}
		off[u+1]++
		off[v+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	to := make([]graph.NodeID, 2*len(tree))
	wt := make([]float64, 2*len(tree))
	cursor := make([]int32, n)
	copy(cursor, off)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		to[cursor[u]], wt[cursor[u]] = v, w[e]
		cursor[u]++
		to[cursor[v]], wt[cursor[v]] = u, w[e]
		cursor[v]++
	}
	return deriveOrder(op, off, to, wt)
}

// deriveOrder builds the rooted BFS order from the forest's CSR (off, to,
// wt), which lists every tree edge in both directions. It checks on the way
// that the arcs are those of a forest: each non-root node skips the arc
// back to its parent once, and every other arc must reach an unvisited
// node. A cycle, a repeated edge or a self-loop fails with
// KindInvalidInput.
func deriveOrder(op string, off []int32, to []graph.NodeID, wt []float64) (*TreeIndex, error) {
	n := len(off) - 1
	ti := &TreeIndex{
		ord: make([]graph.NodeID, n),
		pos: make([]int32, n),
		par: make([]graph.NodeID, n),
		pw:  make([]float64, n),
	}
	for i := range ti.pos {
		ti.pos[i] = -1
	}
	next := int32(0)
	place := func(v, parent graph.NodeID, w float64) {
		ti.pos[v] = next
		ti.ord[next], ti.par[next], ti.pw[next] = v, parent, w
		next++
	}
	for r := graph.NodeID(0); int(r) < n; r++ {
		if ti.pos[r] >= 0 {
			continue
		}
		ti.comp = append(ti.comp, next)
		head := next
		place(r, -1, 0)
		for depth, levelEnd := int32(0), next; head < next; head++ {
			if head == levelEnd {
				depth, levelEnd = depth+1, next
				ti.height = max(ti.height, depth)
			}
			u, p := ti.ord[head], ti.par[head]
			parentSeen := p < 0
			for a := off[u]; a < off[u+1]; a++ {
				v := to[a]
				switch {
				case v == p && !parentSeen:
					parentSeen = true
				case ti.pos[v] >= 0:
					return nil, reproerr.Invalid(op, "not a forest: arc %d {%d,%d} closes a cycle", a, u, v)
				default:
					place(v, u, wt[a])
				}
			}
		}
	}
	ti.comp = append(ti.comp, int32(n))
	return ti, nil
}

// NumNodes returns the node count of the indexed graph.
func (ti *TreeIndex) NumNodes() int { return len(ti.pos) }

// TreeScratch holds the reusable per-executor buffer of DistancesInto: the
// stack of positions on the source's path to its root, sized to the tree's
// height by the first walk over a tree taller than any before. The zero
// value is ready to use; reusing one across queries makes every later walk
// of that tree allocation-free, whatever its source. A TreeScratch must not
// be used concurrently.
type TreeScratch struct {
	path []int32
}

// DistancesInto computes the weighted within-tree distances from src into
// dst (grown to NumNodes, reusing capacity) and returns it. Nodes outside
// src's tree component get Infinite. With a warm scratch and sufficient dst
// capacity the walk performs zero allocations.
//
// Every entry is one float64 addition, dst[u] + w(u,v) with u the neighbour
// of v toward src — the same addition, on the same operands, as a BFS from
// src over the tree — so rows are bit-identical to that BFS.
func (ti *TreeIndex) DistancesInto(dst []float64, src graph.NodeID, sc *TreeScratch) ([]float64, error) {
	n := ti.NumNodes()
	if src < 0 || int(src) >= n {
		return dst, reproerr.Invalid("sssp.Distances", "source %d out of range [0,%d)", src, n)
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	ord, par, pw := ti.ord, ti.par, ti.pw

	// (1) Walk from src up to its root: there the neighbour toward src is
	// the child below, so each ancestor is one edge farther than its child.
	if cap(sc.path) <= int(ti.height) {
		sc.path = make([]int32, 0, ti.height+1)
	}
	p := ti.pos[src]
	dst[src] = 0
	path := append(sc.path[:0], p)
	for par[p] >= 0 {
		u := par[p]
		dst[u] = dst[ord[p]] + pw[p]
		p = ti.pos[u]
		path = append(path, p)
	}
	sc.path = path
	lo, hi := p, ti.compEnd(p)

	// (2) One forward pass over the component in BFS order. Off the root
	// path the neighbour toward src is the parent, which precedes its
	// children, so each node is one edge farther than its parent. The path
	// positions (ascending from the root when read backwards) are already
	// written; the pass covers the gaps between them.
	for j := len(path) - 1; j >= 0; j-- {
		end := hi
		if j > 0 {
			end = path[j-1]
		}
		a := path[j] + 1
		o, pr, w := ord[a:end], par[a:end], pw[a:end]
		for i, v := range o {
			dst[v] = dst[pr[i]] + w[i]
		}
	}
	for _, v := range ord[:lo] {
		dst[v] = Infinite
	}
	for _, v := range ord[hi:] {
		dst[v] = Infinite
	}
	return dst, nil
}

// compEnd returns the end position of the component whose root sits at
// position lo.
func (ti *TreeIndex) compEnd(lo int32) int32 {
	c := ti.comp
	return c[sort.Search(len(c), func(k int) bool { return c[k] > lo })]
}
