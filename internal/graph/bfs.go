package graph

// Unreached marks a node not reached by a traversal in BFSResult.Dist.
const Unreached int32 = -1

// BFSResult holds the output of a breadth-first search: per-node hop
// distances and BFS-tree parents. Dist[v] == Unreached for nodes the search
// did not reach; Parent[v] == -1 for sources and unreached nodes.
type BFSResult struct {
	Dist   []int32
	Parent []NodeID
	// Reached lists the reached nodes in visit order (sources first).
	Reached []NodeID
}

// MaxDist returns the largest finite distance in the result, i.e. the
// eccentricity of the source set within its reachable region.
func (r *BFSResult) MaxDist() int32 {
	var maxd int32
	for _, v := range r.Reached {
		if d := r.Dist[v]; d > maxd {
			maxd = d
		}
	}
	return maxd
}

// BFS runs a breadth-first search over the whole graph from src.
func BFS(g *Graph, src NodeID) *BFSResult {
	return bfs(g, []NodeID{src}, nil)
}

// MultiSourceBFS runs a breadth-first search from every node of srcs at once;
// Dist[v] is the hop distance from the nearest source.
func MultiSourceBFS(g *Graph, srcs []NodeID) *BFSResult {
	return bfs(g, srcs, nil)
}

// ArcFilter restricts a traversal: an arc a from u is usable only if the
// filter returns true. A nil ArcFilter admits every arc.
type ArcFilter func(arc int32, u, v NodeID, e EdgeID) bool

// FilteredBFS runs a breadth-first search from src using only arcs admitted
// by the filter.
func FilteredBFS(g *Graph, src NodeID, filter ArcFilter) *BFSResult {
	return bfs(g, []NodeID{src}, filter)
}

func bfs(g *Graph, srcs []NodeID, filter ArcFilter) *BFSResult {
	n := g.NumNodes()
	res := &BFSResult{
		Dist:    make([]int32, n),
		Parent:  make([]NodeID, n),
		Reached: make([]NodeID, 0, len(srcs)),
	}
	for i := range res.Dist {
		res.Dist[i] = Unreached
		res.Parent[i] = -1
	}
	queue := make([]NodeID, 0, len(srcs))
	for _, s := range srcs {
		if res.Dist[s] == Unreached {
			res.Dist[s] = 0
			queue = append(queue, s)
			res.Reached = append(res.Reached, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := res.Dist[u]
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			if res.Dist[v] != Unreached {
				continue
			}
			if filter != nil && !filter(a, u, v, g.ArcEdge(a)) {
				continue
			}
			res.Dist[v] = du + 1
			res.Parent[v] = u
			queue = append(queue, v)
			res.Reached = append(res.Reached, v)
		}
	}
	return res
}

// PathTo reconstructs the tree path from a BFS source to v, inclusive.
// It returns nil if v was not reached.
func (r *BFSResult) PathTo(v NodeID) []NodeID {
	if r.Dist[v] == Unreached {
		return nil
	}
	path := make([]NodeID, 0, r.Dist[v]+1)
	for u := v; u != -1; u = r.Parent[u] {
		path = append(path, u)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
