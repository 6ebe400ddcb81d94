package graph

// ConnectedComponents labels every node with a component index in [0, k) and
// returns the label array together with the number of components k.
// Components are numbered in order of their smallest node ID.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]NodeID, 0, 64)
	var k int32
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = k
		queue = append(queue[:0], NodeID(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if labels[v] == -1 {
					labels[v] = k
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return labels, int(k)
}

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
