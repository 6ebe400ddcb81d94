package shortcut

import (
	"math"

	"repro/internal/graph"
)

// Trivial returns the empty shortcut assignment (Hi = ∅ for every part):
// congestion ≤ 1, dilation = the largest induced part diameter. This is the
// "no shortcuts" baseline of experiment E5.
func Trivial(p *Partition) *Shortcuts {
	return &Shortcuts{
		P:      p,
		H:      make([][]graph.EdgeID, p.NumParts()),
		Params: Params{Diameter: 0, KD: 0, N: 0, P: 0, Reps: 0, LogFactor: 0},
	}
}

// GhaffariHaeupler builds the generic O(D + √n)-quality shortcuts observed
// by [GH16] for arbitrary graphs: parts larger than √n (there are at most √n
// of them, as parts are disjoint) are augmented with a BFS tree of the whole
// graph, giving those parts dilation ≤ 2·depth ≤ 2D at congestion ≤ √n+1;
// parts of at most √n nodes keep Hi = ∅ and have diameter ≤ √n already.
// This is the baseline our construction must beat for D ≥ 3 (experiment E5).
func GhaffariHaeupler(p *Partition, root graph.NodeID) *Shortcuts {
	g := p.Graph()
	threshold := int(math.Ceil(math.Sqrt(float64(g.NumNodes()))))
	res := graph.BFS(g, root)
	tree := make([]graph.EdgeID, 0, g.NumNodes()-1)
	for v := 0; v < g.NumNodes(); v++ {
		parent := res.Parent[v]
		if parent == -1 {
			continue
		}
		if e, ok := g.FindEdge(graph.NodeID(v), parent); ok {
			tree = append(tree, e)
		}
	}
	h := make([][]graph.EdgeID, p.NumParts())
	for _, pi := range p.LargeParts(threshold) {
		h[pi] = tree // shared read-only slice
	}
	return &Shortcuts{
		P:      p,
		H:      h,
		Params: Params{Diameter: int(res.MaxDist()), KD: float64(threshold)},
	}
}
