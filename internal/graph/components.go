package graph

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func IsConnected(g *Graph) bool {
	if g.NumNodes() == 0 {
		return true
	}
	res := BFS(g, 0)
	return len(res.Reached) == g.NumNodes()
}

// IsNodeSetConnected reports whether the subgraph induced by the given node
// set is connected. An empty set and a single node are connected; a node
// listed twice counts once.
func IsNodeSetConnected(g *Graph, nodes []NodeID) bool {
	if len(nodes) <= 1 {
		return true
	}
	// unvisited holds the members the search has not reached yet.
	unvisited := NewBitset(g.NumNodes())
	distinct := 0
	for _, v := range nodes {
		if !unvisited.Has(v) {
			unvisited.Set(v)
			distinct++
		}
	}
	queue := make([]NodeID, 1, distinct)
	queue[0] = nodes[0]
	unvisited.Clear(nodes[0])
	for head := 0; head < len(queue); head++ {
		lo, hi := g.ArcRange(queue[head])
		for a := lo; a < hi; a++ {
			if v := g.ArcTarget(a); unvisited.Has(v) {
				unvisited.Clear(v)
				queue = append(queue, v)
			}
		}
	}
	return len(queue) == distinct
}
