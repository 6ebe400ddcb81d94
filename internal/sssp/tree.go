package sssp

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// TreeIndex is the immutable, query-reentrant form of a spanning forest: the
// forest's adjacency in CSR form with per-arc weights, built once (e.g. at
// snapshot-build time in the serving layer) and then shared read-only by any
// number of concurrent per-source distance queries. It is the prebuilt state
// TreeApprox derives internally on every call; serving builds it once and
// amortizes it across queries.
type TreeIndex struct {
	off []int32
	to  []graph.NodeID
	wt  []float64

	// Rooted BFS order of every component, derived from the CSR once and
	// never persisted. Position i holds node ord[i], whose parent is par[i]
	// (-1 at a root) across an edge of weight pw[i]; pos inverts ord. Each
	// component occupies a contiguous run of positions that starts at its
	// root, its smallest node ID; comp lists the runs' start positions,
	// then n. height is the largest depth of any node below its root.
	ord    []graph.NodeID
	pos    []int32
	par    []graph.NodeID
	pw     []float64
	comp   []int32
	height int32
}

// NewTreeIndex indexes the given tree edges of g under weights w. The edges
// must form a forest (callers pass a spanning tree or forest produced by the
// MST machinery); a cycle or a repeated edge is rejected with
// KindInvalidInput.
func NewTreeIndex(g *graph.Graph, w graph.Weights, tree []graph.EdgeID) (*TreeIndex, error) {
	const op = "sssp.NewTreeIndex"
	n := g.NumNodes()
	ti := &TreeIndex{off: make([]int32, n+1)}
	for _, e := range tree {
		if e < 0 || int(e) >= g.NumEdges() {
			return nil, reproerr.Invalid(op, "tree edge %d out of range", e)
		}
		u, v := g.EdgeEndpoints(e)
		ti.off[u+1]++
		ti.off[v+1]++
	}
	for i := 0; i < n; i++ {
		ti.off[i+1] += ti.off[i]
	}
	ti.to = make([]graph.NodeID, 2*len(tree))
	ti.wt = make([]float64, 2*len(tree))
	cursor := make([]int32, n)
	copy(cursor, ti.off)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		ti.to[cursor[u]], ti.wt[cursor[u]] = v, w[e]
		cursor[u]++
		ti.to[cursor[v]], ti.wt[cursor[v]] = u, w[e]
		cursor[v]++
	}
	if err := ti.deriveOrder(op); err != nil {
		return nil, err
	}
	return ti, nil
}

// deriveOrder fills the rooted BFS order from the CSR, checking on the way
// everything DistancesInto indexes by: monotone offsets, targets in [0,n),
// and that the arcs are exactly those of an undirected forest — each
// non-root node lists its parent once, and every other arc reaches an
// unvisited node. A cycle, a repeated edge, a self-loop or an arc without its
// reverse fails with KindInvalidInput. off must already run from 0 to
// len(to).
func (ti *TreeIndex) deriveOrder(op string) error {
	n := len(ti.off) - 1
	for u := 0; u < n; u++ {
		if ti.off[u] > ti.off[u+1] {
			return reproerr.Invalid(op, "offsets not monotone at node %d", u)
		}
	}
	ti.ord = make([]graph.NodeID, n)
	ti.pos = make([]int32, n)
	ti.par = make([]graph.NodeID, n)
	ti.pw = make([]float64, n)
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
			for a := ti.off[u]; a < ti.off[u+1]; a++ {
				v := ti.to[a]
				switch {
				case v < 0 || int(v) >= n:
					return reproerr.Invalid(op, "arc %d: target %d out of range [0,%d)", a, v, n)
				case v == p && !parentSeen:
					parentSeen = true
				case ti.pos[v] >= 0:
					return reproerr.Invalid(op, "not a forest: arc %d {%d,%d} closes a cycle", a, u, v)
				default:
					place(v, u, ti.wt[a])
				}
			}
			if !parentSeen {
				return reproerr.Invalid(op, "not a forest: node %d lists no arc back to its parent %d", u, p)
			}
		}
	}
	ti.comp = append(ti.comp, int32(n))
	return nil
}

// NumNodes returns the node count of the indexed graph.
func (ti *TreeIndex) NumNodes() int { return len(ti.off) - 1 }

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

// Raw returns the index's persisted arrays (tree CSR offsets, arc targets,
// arc weights) as shared read-only slices for zero-copy persistence. The
// rooted order is not among them: RawTreeIndex derives it again on load.
func (ti *TreeIndex) Raw() (off []int32, to []graph.NodeID, wt []float64) {
	return ti.off, ti.to, ti.wt
}

// RawTreeIndex reassembles a TreeIndex around previously built arrays
// without copying them — the persistence load path. It checks the CSR's
// shape and derives the rooted order with checked offsets and targets, so a
// malformed or cyclic index fails here with KindInvalidInput instead of
// faulting a later walk. Agreement with a graph (each arc a tree edge of the
// right weight) is the snapshot loader's verification.
func RawTreeIndex(off []int32, to []graph.NodeID, wt []float64) (*TreeIndex, error) {
	const op = "sssp.RawTreeIndex"
	if len(off) < 1 {
		return nil, reproerr.Invalid(op, "offsets empty (need n+1 entries)")
	}
	if len(to) != len(wt) {
		return nil, reproerr.Invalid(op, "targets/weights length mismatch: %d vs %d", len(to), len(wt))
	}
	if off[0] != 0 || int(off[len(off)-1]) != len(to) {
		return nil, reproerr.Invalid(op, "offsets do not bracket %d arcs", len(to))
	}
	ti := &TreeIndex{off: off, to: to, wt: wt}
	if err := ti.deriveOrder(op); err != nil {
		return nil, err
	}
	return ti, nil
}
