package sssp

import (
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// TreeIndex is the immutable, query-reentrant form of a spanning tree: the
// tree's adjacency in CSR form with per-arc weights, built once (e.g. at
// snapshot-build time in the serving layer) and then shared read-only by any
// number of concurrent per-source distance queries. It is the prebuilt state
// TreeApprox derives internally on every call; serving builds it once and
// amortizes it across queries.
type TreeIndex struct {
	off []int32
	to  []graph.NodeID
	wt  []float64

	acyclic bool // the indexed edges form a forest (checked once at build)
}

// NewTreeIndex indexes the given tree edges of g under weights w. Edges are
// not validated beyond ID range; callers pass a spanning tree or forest
// produced by the MST machinery.
func NewTreeIndex(g *graph.Graph, w graph.Weights, tree []graph.EdgeID) (*TreeIndex, error) {
	n := g.NumNodes()
	ti := &TreeIndex{off: make([]int32, n+1)}
	for _, e := range tree {
		if e < 0 || int(e) >= g.NumEdges() {
			return nil, reproerr.Invalid("sssp.NewTreeIndex", "tree edge %d out of range", e)
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
	for i := range cursor {
		cursor[i] = ti.off[i]
	}
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		ti.to[cursor[u]], ti.wt[cursor[u]] = v, w[e]
		cursor[u]++
		ti.to[cursor[v]], ti.wt[cursor[v]] = u, w[e]
		cursor[v]++
	}
	// Acyclicity check (union-find with path halving), reusing the cursor
	// scratch. The flag is persisted with the index (see Raw), and the
	// snapshot loader recounts it before trusting a loaded file.
	uf := cursor
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	ti.acyclic = true
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		ru, rv := find(int32(u)), find(int32(v))
		if ru == rv {
			ti.acyclic = false
			break
		}
		uf[ru] = rv
	}
	return ti, nil
}

// NumNodes returns the node count of the indexed graph.
func (ti *TreeIndex) NumNodes() int { return len(ti.off) - 1 }

// NumTreeEdges returns the number of indexed tree edges.
func (ti *TreeIndex) NumTreeEdges() int { return len(ti.to) / 2 }

// TreeScratch holds the reusable per-executor buffers of DistancesInto. The
// zero value is ready to use; reusing one across queries makes the warm path
// allocation-free. A TreeScratch must not be used concurrently.
type TreeScratch struct {
	hops  []int32
	queue []graph.NodeID
}

// DistancesInto computes the weighted within-tree distances from src into
// dst (grown to NumNodes, reusing capacity) and returns it. Nodes outside
// src's tree component get Infinite. With a warm scratch and sufficient dst
// capacity the walk performs zero allocations.
func (ti *TreeIndex) DistancesInto(dst []float64, src graph.NodeID, sc *TreeScratch) ([]float64, error) {
	n := ti.NumNodes()
	if src < 0 || int(src) >= n {
		return dst, reproerr.Invalid("sssp.Distances", "source %d out of range [0,%d)", src, n)
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if cap(sc.hops) < n {
		sc.hops = make([]int32, n)
	}
	sc.hops = sc.hops[:n]
	if cap(sc.queue) < n {
		sc.queue = make([]graph.NodeID, 0, n)
	}
	sc.queue = sc.queue[:0]
	for i := 0; i < n; i++ {
		dst[i] = Infinite
		sc.hops[i] = -1
	}
	dst[src] = 0
	sc.hops[src] = 0
	sc.queue = append(sc.queue, src)
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		for a := ti.off[u]; a < ti.off[u+1]; a++ {
			v := ti.to[a]
			if sc.hops[v] == -1 {
				sc.hops[v] = sc.hops[u] + 1
				dst[v] = dst[u] + ti.wt[a]
				sc.queue = append(sc.queue, v)
			}
		}
	}
	return dst, nil
}

// Raw returns the index's internal arrays (tree CSR offsets, arc targets,
// arc weights) and the acyclicity flag, as shared read-only slices for
// zero-copy persistence.
func (ti *TreeIndex) Raw() (off []int32, to []graph.NodeID, wt []float64, acyclic bool) {
	return ti.off, ti.to, ti.wt, ti.acyclic
}

// RawTreeIndex reassembles a TreeIndex around previously built arrays
// without copying or re-deriving the acyclicity flag — the persistence load
// path. The caller is responsible for structural validity (the snapshot
// loader verifies the CSR shape, ID ranges, and that acyclic matches a
// union-find recount before trusting the index).
func RawTreeIndex(off []int32, to []graph.NodeID, wt []float64, acyclic bool) (*TreeIndex, error) {
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
	return &TreeIndex{off: off, to: to, wt: wt, acyclic: acyclic}, nil
}
