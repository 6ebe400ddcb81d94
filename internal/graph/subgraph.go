package graph

// AugmentedView is a read-only view of the subgraph G[S] ∪ H where S is a
// node set and H is a set of extra undirected edges of G (by EdgeID). This is
// exactly the augmented subgraph whose diameter the shortcut dilation bound
// talks about: an arc (u, v) is usable if both endpoints are in S, or if its
// undirected edge is in H.
//
// Nodes of the view are: every node of S, plus every endpoint of an edge of
// H. Views share the parent graph's storage and are cheap to create relative
// to copying the subgraph.
type AugmentedView struct {
	g     *Graph
	inS   *Bitset // node membership in S
	inH   *Bitset // edge membership in H
	nodes []NodeID
}

// NewAugmentedView builds the view of G[S] ∪ H. The caller retains ownership
// of the inputs; they are copied into internal bitsets.
func NewAugmentedView(g *Graph, s []NodeID, h []EdgeID) *AugmentedView {
	v := &AugmentedView{
		g:   g,
		inS: NewBitset(g.NumNodes()),
		inH: NewBitset(g.NumEdges()),
	}
	inView := NewBitset(g.NumNodes())
	for _, u := range s {
		v.inS.Set(u)
		inView.Set(u)
	}
	for _, e := range h {
		v.inH.Set(e)
		a, b := g.EdgeEndpoints(e)
		inView.Set(a)
		inView.Set(b)
	}
	v.nodes = make([]NodeID, 0, inView.Count())
	inView.ForEach(func(i int32) { v.nodes = append(v.nodes, i) })
	return v
}

// Graph returns the parent graph.
func (v *AugmentedView) Graph() *Graph { return v.g }

// Nodes returns the nodes of the view (S plus endpoints of H) in increasing
// order. Callers must not modify the returned slice.
func (v *AugmentedView) Nodes() []NodeID { return v.nodes }

// HasNode reports whether u belongs to the view.
func (v *AugmentedView) HasNode(u NodeID) bool {
	return v.inS.Has(u) || v.touchesH(u)
}

func (v *AugmentedView) touchesH(u NodeID) bool {
	lo, hi := v.g.ArcRange(u)
	for a := lo; a < hi; a++ {
		if v.inH.Has(v.g.ArcEdge(a)) {
			return true
		}
	}
	return false
}

// UsableArc reports whether the directed arc (u, v) with edge e may be
// traversed inside the view.
func (v *AugmentedView) UsableArc(u, w NodeID, e EdgeID) bool {
	if v.inH.Has(e) {
		return true
	}
	return v.inS.Has(u) && v.inS.Has(w)
}

// Filter returns an ArcFilter admitting exactly the view's usable arcs.
func (v *AugmentedView) Filter() ArcFilter {
	return func(_ int32, u, w NodeID, e EdgeID) bool {
		return v.UsableArc(u, w, e)
	}
}

// BFS runs a breadth-first search inside the view from src. src must be a
// node of the view.
func (v *AugmentedView) BFS(src NodeID) *BFSResult {
	return FilteredBFS(v.g, src, v.Filter())
}

// DiameterAmong returns the largest pairwise hop distance *between nodes of
// the set interest* inside the view, or -1 if some pair of interest nodes is
// disconnected in the view. This is the exact dilation of the augmented
// subgraph with respect to S.
//
// It runs a level-synchronous multi-source BFS from 64 interest nodes at a
// time, one bit per source in a uint64 per node (Then et al., VLDB 2014).
// A source's bit first reaches a node at exactly the node's BFS level from
// that source, so the deepest level at which an interest node gains a bit is
// the largest distance from the chunk's sources to the interest set.
func (v *AugmentedView) DiameterAmong(interest []NodeID) int32 {
	g := v.g
	n := g.NumNodes()
	isInterest := NewBitset(n)
	for _, t := range interest {
		isInterest.Set(t)
	}
	// seen: source bits a node has been reached by; cur: bits it gained at
	// the current level; next: bits it gains at the level being expanded.
	seen := make([]uint64, n)
	cur := make([]uint64, n)
	next := make([]uint64, n)
	// Frontiers hold view nodes plus, at level 0, the chunk's sources.
	frontier := make([]NodeID, 0, len(v.nodes)+64)
	grown := make([]NodeID, 0, len(v.nodes)+64)
	var diam int32
	for lo := 0; lo < len(interest); lo += 64 {
		chunk := interest[lo:min(lo+64, len(interest))]
		frontier = frontier[:0]
		for i, s := range chunk {
			if cur[s] == 0 {
				frontier = append(frontier, s)
			}
			cur[s] |= 1 << i
			seen[s] |= 1 << i
		}
		for level := int32(1); len(frontier) > 0; level++ {
			grown = grown[:0]
			for _, u := range frontier {
				bits := cur[u]
				alo, ahi := g.ArcRange(u)
				for a := alo; a < ahi; a++ {
					w := g.neighbors[a]
					gain := bits &^ (seen[w] | next[w])
					if gain == 0 || !v.UsableArc(u, w, g.arcEdge[a]) {
						continue
					}
					if next[w] == 0 {
						grown = append(grown, w)
					}
					next[w] |= gain
				}
			}
			for _, u := range frontier {
				cur[u] = 0
			}
			for _, w := range grown {
				cur[w], seen[w], next[w] = next[w], seen[w]|next[w], 0
				if level > diam && isInterest.Has(w) {
					diam = level
				}
			}
			frontier, grown = grown, frontier
		}
		all := ^uint64(0) >> (64 - len(chunk))
		for _, t := range interest {
			if seen[t] != all {
				return -1
			}
		}
		// Only view nodes and the chunk's own sources can hold bits.
		for _, u := range v.nodes {
			seen[u] = 0
		}
		for _, s := range chunk {
			seen[s] = 0
		}
	}
	return diam
}

// EccentricityAmong returns the largest hop distance from src to any node of
// interest inside the view, or -1 if some interest node is unreachable.
// In a connected view, the true diameter among interest nodes lies in
// [ecc, 2·ecc].
func (v *AugmentedView) EccentricityAmong(src NodeID, interest []NodeID) int32 {
	res := v.BFS(src)
	var ecc int32
	for _, t := range interest {
		d := res.Dist[t]
		if d == Unreached {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
