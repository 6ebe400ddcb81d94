package graph

import (
	"fmt"
	"math"
	"sort"
)

// DeltaEdge is one edge insertion of a Delta: the undirected edge {U, V}
// with weight W. W is ignored when the graph being mutated carries no
// weights.
type DeltaEdge struct {
	U, V NodeID
	W    float64
}

// Delta is a batch of graph mutations over a fixed vertex set: edge
// deletions followed by edge insertions. Deletions are applied first, so a
// delta may delete an edge and re-insert it (with a new weight) in one
// batch. The node count never changes — dynamic graphs in this repository
// mutate their edge set under a stable vertex universe, which is what keeps
// partitions (vertex sets) stable across updates.
type Delta struct {
	// Delete lists undirected edges to remove, by endpoints.
	Delete [][2]NodeID
	// Insert lists undirected edges to add, with weights.
	Insert []DeltaEdge
}

// Size returns the total number of mutations |Delete| + |Insert|.
func (d Delta) Size() int { return len(d.Delete) + len(d.Insert) }

// DeltaRemap records how ApplyDelta renumbered edges: EdgeIDs are always
// assigned in canonical sorted (u, v) order, so inserting or deleting an
// edge shifts the IDs of every later edge. Every per-edge annotation held
// against the old graph (shortcut membership, tree edges, weights) is
// migrated through this table.
type DeltaRemap struct {
	// OldToNew maps each old EdgeID to its new EdgeID, or -1 if deleted.
	// Surviving edges keep their relative order, so an ascending list of
	// old EdgeIDs maps to an ascending list of new ones.
	OldToNew []EdgeID
	// Inserted holds the new-graph EdgeID of each Delta.Insert entry,
	// aligned with the delta's Insert slice.
	Inserted []EdgeID
}

// Deleted returns the number of edges the delta removed.
func (r *DeltaRemap) Deleted() int {
	d := 0
	for _, e := range r.OldToNew {
		if e < 0 {
			d++
		}
	}
	return d
}

// ApplyDelta applies a batch of edge mutations to g and returns the
// resulting graph, migrated weights, and the edge-ID remap. The input graph
// and weights are never modified — the result is a fresh immutable Graph,
// bit-identical to building the post-delta edge set from scratch with a
// Builder (the CSR assembly is shared), so incremental pipelines and
// from-scratch rebuilds agree exactly.
//
// w may be nil for unweighted graphs (insert weights are then ignored and
// the returned weights are nil). Validation errors — unknown deleted edge,
// duplicate or already-present insert, self-loop, endpoint out of range —
// reject the whole delta.
func ApplyDelta(g *Graph, w Weights, d Delta) (*Graph, Weights, *DeltaRemap, error) {
	n := g.NumNodes()
	m := g.NumEdges()
	if w != nil && len(w) != m {
		return nil, nil, nil, fmt.Errorf("graph: delta: %d weights for %d edges", len(w), m)
	}

	// Phase 1: deletions, against the current edge set.
	dead := make(map[EdgeID]struct{}, len(d.Delete))
	for i, uv := range d.Delete {
		if uv[0] < 0 || int(uv[0]) >= n || uv[1] < 0 || int(uv[1]) >= n {
			return nil, nil, nil, fmt.Errorf("graph: delta: delete %d: edge {%d,%d}: endpoint out of range [0,%d)", i, uv[0], uv[1], n)
		}
		e, ok := g.FindEdge(uv[0], uv[1])
		if !ok {
			return nil, nil, nil, fmt.Errorf("graph: delta: delete %d: edge {%d,%d} not in graph", i, uv[0], uv[1])
		}
		if _, dup := dead[e]; dup {
			return nil, nil, nil, fmt.Errorf("graph: delta: delete %d: edge {%d,%d} deleted twice", i, uv[0], uv[1])
		}
		dead[e] = struct{}{}
	}

	// Phase 2: insert validation, against the post-deletion edge set.
	type ins struct {
		key [2]NodeID
		w   float64
		idx int // position in d.Insert
	}
	inserts := make([]ins, 0, len(d.Insert))
	seen := make(map[[2]NodeID]struct{}, len(d.Insert))
	for i, de := range d.Insert {
		u, v := de.U, de.V
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, nil, nil, fmt.Errorf("graph: delta: insert %d: edge {%d,%d}: endpoint out of range [0,%d)", i, u, v, n)
		}
		if u == v {
			return nil, nil, nil, fmt.Errorf("graph: delta: insert %d: edge {%d,%d}: self-loop", i, u, v)
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if _, dup := seen[key]; dup {
			return nil, nil, nil, fmt.Errorf("graph: delta: insert %d: edge {%d,%d} inserted twice", i, u, v)
		}
		if w != nil && !(de.W > 0 && de.W < math.Inf(1)) { // the Weights.Validate rule; also catches NaN
			return nil, nil, nil, fmt.Errorf("graph: delta: insert %d: edge {%d,%d}: invalid weight %v", i, u, v, de.W)
		}
		seen[key] = struct{}{}
		if e, ok := g.FindEdge(u, v); ok {
			if _, deleted := dead[e]; !deleted {
				return nil, nil, nil, fmt.Errorf("graph: delta: insert %d: edge {%d,%d} already in graph", i, u, v)
			}
		}
		inserts = append(inserts, ins{key: key, w: de.W, idx: i})
	}
	sort.Slice(inserts, func(i, j int) bool {
		if inserts[i].key[0] != inserts[j].key[0] {
			return inserts[i].key[0] < inserts[j].key[0]
		}
		return inserts[i].key[1] < inserts[j].key[1]
	})

	// Phase 3: merge the surviving old edges (already in canonical order)
	// with the sorted inserts, assigning new EdgeIDs as we go.
	remap := &DeltaRemap{
		OldToNew: make([]EdgeID, m),
		Inserted: make([]EdgeID, len(d.Insert)),
	}
	newM := m - len(dead) + len(inserts)
	edges := make([][2]NodeID, 0, newM)
	var newW Weights
	if w != nil {
		newW = make(Weights, 0, newM)
	}
	less := func(a, b [2]NodeID) bool {
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	}
	ii := 0
	emitInsert := func(it ins) {
		remap.Inserted[it.idx] = EdgeID(len(edges))
		edges = append(edges, it.key)
		if w != nil {
			newW = append(newW, it.w)
		}
	}
	for e := 0; e < m; e++ {
		if _, deleted := dead[EdgeID(e)]; deleted {
			remap.OldToNew[e] = -1
			continue
		}
		key := [2]NodeID{g.edgeU[e], g.edgeV[e]}
		for ii < len(inserts) && less(inserts[ii].key, key) {
			emitInsert(inserts[ii])
			ii++
		}
		remap.OldToNew[e] = EdgeID(len(edges))
		edges = append(edges, key)
		if w != nil {
			newW = append(newW, w[e])
		}
	}
	for ; ii < len(inserts); ii++ {
		emitInsert(inserts[ii])
	}
	return fromSortedEdges(n, edges), newW, remap, nil
}
