package mst

import (
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Boruvka computes the MST (or spanning forest) with a centralized mirror of
// Distributed's Borůvka framework: the same phase structure, the same
// fragment enumeration order (fragments appear by their smallest member),
// the same MWOE tie-breaking ((weight, EdgeID) lexicographic, the
// sched.AggValue.Better rule), and the same winner-merge order — but no
// CONGEST simulation, no shortcut construction, and no scheduler. The
// returned tree is therefore bit-identical to Distributed's, in the same
// append order, at a centralized O((n + m)·phases) cost.
//
// This is the MST engine of the dynamic snapshot path: after a graph delta,
// the new snapshot re-derives its shortcut-MST through this mirror in
// milliseconds, and the differential test harness pins the result against
// the simulated construction a from-scratch rebuild performs.
//
// The mirror diverges from Distributed only if a scheduled BFS tree fails to
// span its fragment within the truncation depth — which the construction's
// dilation guarantee rules out on every instance the repository generates,
// and which TestBoruvkaMatchesDistributed re-checks across families.
func BoruvkaMirror(g *graph.Graph, w graph.Weights) ([]graph.EdgeID, float64, error) {
	if err := w.Validate(g); err != nil {
		return nil, 0, reproerr.New("mst.BoruvkaMirror", reproerr.KindInvalidInput, err)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, 0, nil
	}
	uf := NewUnionFind(n)
	var tree []graph.EdgeID

	// Reused per-phase buffers.
	fragOf := make([]int32, n)    // node -> fragment index (phase-local)
	fragOrder := make([]int32, 0) // root -> enumeration order, rebuilt per phase
	type winner struct {
		weight float64
		edge   graph.EdgeID
		valid  bool
	}
	var winners []winner

	for uf.Count() > 1 {
		// Enumerate fragments by smallest member — fragmentLists order.
		fragOrder = fragOrder[:0]
		for v := range fragOf {
			fragOf[v] = -1
		}
		numFrags := int32(0)
		for v := int32(0); int(v) < n; v++ {
			r := uf.Find(v)
			if fragOf[r] == -1 {
				fragOf[r] = numFrags
				numFrags++
			}
			fragOf[v] = fragOf[r]
		}
		if cap(winners) < int(numFrags) {
			winners = make([]winner, numFrags)
		}
		winners = winners[:numFrags]
		for i := range winners {
			winners[i] = winner{}
		}

		// MWOE per fragment: scan nodes in increasing ID (the aggregation
		// over part nodes), candidates tie-broken by (weight, EdgeID) —
		// sched.AggValue.Better's rule.
		for v := int32(0); int(v) < n; v++ {
			fi := fragOf[v]
			best := &winners[fi]
			g.Arcs(graph.NodeID(v), func(_ int32, u graph.NodeID, e graph.EdgeID) bool {
				if fragOf[u] == fi {
					return true
				}
				if !best.valid || w[e] < best.weight || (w[e] == best.weight && e < best.edge) {
					*best = winner{weight: w[e], edge: e, valid: true}
				}
				return true
			})
		}

		// Merge winners in fragment order — Distributed's append order.
		merged := false
		for i := range winners {
			if !winners[i].valid {
				continue
			}
			u, v := g.EdgeEndpoints(winners[i].edge)
			if uf.Union(u, v) {
				tree = append(tree, winners[i].edge)
				merged = true
			}
		}
		if !merged {
			break // disconnected graph: spanning forest complete
		}
	}
	return tree, w.Total(tree), nil
}
