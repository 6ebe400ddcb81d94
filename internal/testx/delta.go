package testx

import "repro/internal/graph"

// PartLeafEdge finds a node with exactly one neighbour in its own part and
// returns that intra-part edge: deleting it disconnects the part's induced
// subgraph (the node loses its only link to the rest of its part). partOf
// maps a node to its part index, or -1 outside every part. ok is false when
// no part has such a node.
func PartLeafEdge(g *graph.Graph, partOf func(graph.NodeID) int32) (u, v graph.NodeID, ok bool) {
	for x := graph.NodeID(0); int(x) < g.NumNodes(); x++ {
		px := partOf(x)
		if px < 0 {
			continue
		}
		inPart, other := 0, graph.NodeID(-1)
		g.Arcs(x, func(_ int32, y graph.NodeID, _ graph.EdgeID) bool {
			if partOf(y) == px {
				inPart++
				other = y
			}
			return true
		})
		if inPart == 1 {
			return x, other, true
		}
	}
	return -1, -1, false
}
