// Package graph provides the immutable graph substrate used by every other
// module of this repository: a compressed-sparse-row (CSR) representation of
// simple undirected graphs with stable edge identifiers, plus the traversal
// and measurement routines (BFS, connectivity, diameter) that the shortcut
// constructions and the CONGEST simulator are built on.
//
// Nodes are identified by NodeID in [0, n). Every undirected edge {u, v}
// carries a single EdgeID in [0, m) shared by both of its directed arcs; all
// per-edge annotations in this repository (shortcut membership, congestion
// counters, MST weights) are arrays indexed by EdgeID.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a vertex of a Graph. Valid IDs are in [0, NumNodes).
type NodeID = int32

// EdgeID identifies an undirected edge of a Graph. Valid IDs are in
// [0, NumEdges). Both directed arcs of an undirected edge share one EdgeID.
type EdgeID = int32

// Graph is an immutable simple undirected graph in CSR form.
//
// The zero value is an empty graph with no nodes. Construct non-trivial
// graphs with a Builder or one of the generators in internal/gen.
type Graph struct {
	offsets   []int32  // len n+1; arcs of node u are [offsets[u], offsets[u+1])
	neighbors []NodeID // arc target, len 2m
	arcEdge   []EdgeID // arc -> undirected edge ID, len 2m
	arcRev    []int32  // arc -> opposite-direction arc of the same edge, len 2m
	arcTail   []NodeID // arc -> tail (source) node, len 2m
	edgeU     []NodeID // edge ID -> smaller endpoint, len m
	edgeV     []NodeID // edge ID -> larger endpoint, len m
}

// NumNodes returns the number of vertices n, 0 for the zero Graph.
func (g *Graph) NumNodes() int { return max(len(g.offsets)-1, 0) }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.edgeU) }

// NumArcs returns the number of directed arcs, which is always 2·NumEdges.
func (g *Graph) NumArcs() int { return len(g.neighbors) }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the neighbor list of u as a shared read-only slice.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	return g.neighbors[g.offsets[u]:g.offsets[u+1]]
}

// ArcRange returns the half-open interval [lo, hi) of arc indices leaving u.
func (g *Graph) ArcRange(u NodeID) (lo, hi int32) {
	return g.offsets[u], g.offsets[u+1]
}

// ArcTarget returns the head of directed arc a.
func (g *Graph) ArcTarget(a int32) NodeID { return g.neighbors[a] }

// ArcEdge returns the undirected EdgeID that arc a belongs to.
func (g *Graph) ArcEdge(a int32) EdgeID { return g.arcEdge[a] }

// ArcReverse returns the arc in the opposite direction of a: the unique arc
// b with ArcEdge(b) == ArcEdge(a) and b ≠ a. The table is precomputed in
// O(Σ deg) at Build time; it is what makes CONGEST message delivery a direct
// slot write (slot ArcReverse(a) at the receiver for a send on arc a).
func (g *Graph) ArcReverse(a int32) int32 { return g.arcRev[a] }

// ArcTail returns the tail (source) of directed arc a, i.e. the node whose
// ArcRange contains a. Precomputed in O(Σ deg) at Build time.
func (g *Graph) ArcTail(a int32) NodeID { return g.arcTail[a] }

// ArcReverses returns the full reverse-arc table indexed by arc, as a shared
// read-only slice (the CONGEST engine's send hot path indexes it directly).
// Callers must not modify the returned slice.
func (g *Graph) ArcReverses() []int32 { return g.arcRev }

// EdgeEndpoints returns the two endpoints of edge e with u < v.
func (g *Graph) EdgeEndpoints(e EdgeID) (u, v NodeID) {
	return g.edgeU[e], g.edgeV[e]
}

// FindEdge returns the EdgeID of the undirected edge {u, v} and true if it
// exists, or 0 and false otherwise. It runs in O(log min(deg u, deg v))
// time via ArcBetween.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	a, ok := g.ArcBetween(u, v)
	if !ok {
		return 0, false
	}
	return g.arcEdge[a], true
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.FindEdge(u, v)
	return ok
}

// ArcBetween returns the directed arc u→v and true if the undirected edge
// {u, v} exists, or 0 and false otherwise. It binary-searches u's neighbor
// list — Build sorts every neighbor list by ID — so it runs in O(log deg u).
// It is the lookup the random-delay scheduler uses to resolve tree edges to
// arcs, and the membership primitive behind FindEdge/HasEdge.
func (g *Graph) ArcBetween(u, v NodeID) (int32, bool) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	i := int32(sort.Search(int(hi-lo), func(i int) bool {
		return g.neighbors[lo+int32(i)] >= v
	}))
	if a := lo + i; a < hi && g.neighbors[a] == v {
		return a, true
	}
	return 0, false
}

// Arcs iterates over the arcs leaving u, invoking fn with the arc index,
// the neighbor, and the undirected edge ID. Iteration stops early if fn
// returns false.
func (g *Graph) Arcs(u NodeID, fn func(arc int32, v NodeID, e EdgeID) bool) {
	lo, hi := g.ArcRange(u)
	for a := lo; a < hi; a++ {
		if !fn(a, g.neighbors[a], g.arcEdge[a]) {
			return
		}
	}
}

// String returns a short human-readable summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}

// Builder accumulates undirected edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at AddEdge time.
//
// The zero value is not usable; construct with NewBuilder.
type Builder struct {
	n     int
	edges [][2]NodeID
	seen  map[[2]NodeID]struct{}
}

// NewBuilder returns a Builder for a graph on n vertices (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{
		n:     n,
		edges: make([][2]NodeID, 0, n),
		seen:  make(map[[2]NodeID]struct{}, n),
	}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge inserts the undirected edge {u, v}. It returns an error if either
// endpoint is out of range, u == v, or the edge was already added.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("edge {%d,%d}: endpoint out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("edge {%d,%d}: self-loop", u, v)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]NodeID{u, v}
	if _, dup := b.seen[key]; dup {
		return fmt.Errorf("edge {%d,%d}: duplicate", u, v)
	}
	b.seen[key] = struct{}{}
	b.edges = append(b.edges, key)
	return nil
}

// TryAddEdge inserts {u, v} if it is a new valid edge and reports whether it
// was inserted. It is a convenience for randomized generators that probe
// candidate edges.
func (b *Builder) TryAddEdge(u, v NodeID) bool {
	return b.AddEdge(u, v) == nil
}

// HasEdge reports whether {u, v} has already been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := b.seen[[2]NodeID{u, v}]
	return ok
}

// Build finalizes the builder into an immutable Graph. The builder may not
// be reused afterwards. Edges receive EdgeIDs in sorted (u, v) order so that
// Build is deterministic regardless of insertion order.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	g := fromSortedEdges(b.n, b.edges)
	b.seen = nil
	b.edges = nil
	return g
}

// fromSortedEdges assembles the CSR arrays from an edge list already in
// canonical sorted (u, v) order with u < v per edge. It is the single
// construction path shared by Builder.Build and ApplyDelta, so a graph built
// incrementally is bit-identical to the same edge set built from scratch.
func fromSortedEdges(n int, edges [][2]NodeID) *Graph {
	m := len(edges)
	g := &Graph{
		offsets:   make([]int32, n+1),
		neighbors: make([]NodeID, 2*m),
		arcEdge:   make([]EdgeID, 2*m),
		arcRev:    make([]int32, 2*m),
		arcTail:   make([]NodeID, 2*m),
		edgeU:     make([]NodeID, m),
		edgeV:     make([]NodeID, m),
	}
	deg := make([]int32, n)
	for e, uv := range edges {
		g.edgeU[e] = uv[0]
		g.edgeV[e] = uv[1]
		deg[uv[0]]++
		deg[uv[1]]++
	}
	for u := 0; u < n; u++ {
		g.offsets[u+1] = g.offsets[u] + deg[u]
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for e, uv := range edges {
		u, v := uv[0], uv[1]
		au, av := cursor[u], cursor[v]
		g.neighbors[au] = v
		g.arcEdge[au] = EdgeID(e)
		g.arcRev[au] = av
		g.arcTail[au] = u
		g.neighbors[av] = u
		g.arcEdge[av] = EdgeID(e)
		g.arcRev[av] = au
		g.arcTail[av] = v
		cursor[u]++
		cursor[v]++
	}
	return g
}

// FromEdges builds a graph on n nodes from an edge list, returning an error
// on the first invalid or duplicate edge.
func FromEdges(n int, edges [][2]NodeID) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
