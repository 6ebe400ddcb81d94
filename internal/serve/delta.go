package serve

import (
	"context"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
	"repro/internal/shortcut"
	"repro/internal/sssp"
)

// DeltaOptions configures ApplyDelta. It has no fields: the new snapshot is
// a pure function of the old one and the delta.
type DeltaOptions struct{}

// ApplyDelta applies a batch of edge mutations to a snapshot's graph and
// derives the serving state of the post-delta graph:
//
//   - the CSR graph and weights are rebuilt through graph.ApplyDelta
//     (bit-identical to a from-scratch build of the post-delta edge set);
//   - parts that lost an intra-part edge are re-checked for connectivity
//     (a disconnecting delta fails with KindInvalidInput — repartition and
//     rebuild from scratch in that case);
//   - the shortcut assignment is rebuilt by shortcut.BuildSeeded with the
//     old snapshot's sampling seed and diameter: its per-edge streams give
//     surviving edges their old draws and inserted edges fresh ones, so a
//     part the delta did not reach keeps its H (under the edge remap);
//   - per-part dilation is re-measured only for parts whose augmented
//     subgraph changed (H changed, or an intra-part edge came or went);
//     congestion is recounted (O(m));
//   - the shortcut-MST is re-derived through the centralized Borůvka
//     mirror, bit-identical to the simulated construction a rebuild runs.
//
// The result is a new immutable Snapshot whose query answers are
// bit-identical to NewSnapshot on the post-delta graph with the same
// derived seeds and the same pinned diameter — the property the
// differential test harness pins. The update always reuses the base
// build's diameter (Snapshot.Diameter()); a rebuild that passes Diameter 0
// re-estimates it from the mutated graph and may legitimately derive
// different parameters, so comparisons must pin it explicitly. The old
// snapshot is untouched and remains serveable (a Store hot-swaps between
// them). The new snapshot's Cost() is the update's wall time, with zero
// simulated rounds and messages; its Generation() increments; Repair()
// describes what was touched.
//
// Answers' simulated cost metadata (rounds/messages) is carried over from
// the original build — the update deliberately does not re-run the
// simulated MST construction that metadata describes.
func ApplyDelta(ctx context.Context, old *Snapshot, delta graph.Delta, _ DeltaOptions) (*Snapshot, error) {
	const op = "serve.ApplyDelta"
	if old == nil {
		return nil, reproerr.Invalid(op, "nil snapshot")
	}
	if delta.Size() == 0 {
		return nil, reproerr.Invalid(op, "empty delta")
	}
	start := time.Now()

	// Apply (and fully validate) the delta first: everything below may
	// index part tables by the delta's endpoints, which is only safe once
	// ApplyDelta has range-checked them.
	g2, w2, rm, err := graph.ApplyDelta(old.g, old.w, delta)
	if err != nil {
		return nil, reproerr.New(op, reproerr.KindInvalidInput, err)
	}

	// Parts whose induced subgraph a deletion touches (connectivity
	// recheck) — resolved against the OLD graph's partition (part
	// membership never shifts under a delta).
	recheckSet := make(map[int]struct{})
	qualityTouched := make(map[int]struct{})
	for _, uv := range delta.Delete {
		pu, pv := old.p.PartOf(uv[0]), old.p.PartOf(uv[1])
		if pu >= 0 && pu == pv {
			recheckSet[int(pu)] = struct{}{}
			qualityTouched[int(pu)] = struct{}{}
		}
	}
	for _, de := range delta.Insert {
		pu, pv := old.p.PartOf(de.U), old.p.PartOf(de.V)
		if pu >= 0 && pu == pv {
			qualityTouched[int(pu)] = struct{}{}
		}
	}
	recheck := make([]int, 0, len(recheckSet))
	for pi := range recheckSet {
		recheck = append(recheck, pi)
	}
	sort.Ints(recheck) // deterministic validation order (and error attribution)

	p2, err := old.p.Rebind(g2, recheck)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "%w", err)
	}

	s2, err := shortcut.BuildSeeded(g2, p2, shortcut.Options{
		Diameter: old.diameter, LogFactor: old.logFactor, Ctx: ctx,
	}, old.samplingSeed)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "shortcuts: %w", err)
	}
	touched := changedParts(old.s.H, s2.H, rm.OldToNew)
	for _, pi := range touched {
		qualityTouched[pi] = struct{}{}
	}

	// Re-measure dilation only where the augmented subgraph changed;
	// everything else keeps its per-part record (dilation is a pure
	// function of the part's augmented subgraph, which did not change).
	partDil := make([]shortcut.Quality, len(old.partDil))
	copy(partDil, old.partDil)
	for pi := range qualityTouched {
		if err := reproerr.CtxCheck(op, ctx); err != nil {
			return nil, err
		}
		pq, err := s2.PartDilation(pi, old.dilationCutoff)
		if err != nil {
			return nil, reproerr.Errorf(op, reproerr.KindOf(err), "quality: %w", err)
		}
		partDil[pi] = pq
	}
	quality := shortcut.AggregateQuality(partDil, s2.Congestion())

	// Re-derive the shortcut-MST through the centralized mirror —
	// bit-identical to the simulated construction, at milliseconds.
	tree, treeWeight, err := mst.BoruvkaMirror(g2, w2)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "shortcut-MST: %w", err)
	}
	ti, err := sssp.NewTreeIndex(g2, w2, tree)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "tree index: %w", err)
	}
	servRounds, servMessages := sssp.TreeServeCost(g2.NumNodes(), old.qualitySum, len(tree))

	return &Snapshot{
		g:              g2,
		w:              w2,
		p:              p2,
		s:              s2,
		quality:        quality,
		partDil:        partDil,
		tree:           tree,
		treeWeight:     treeWeight,
		ti:             ti,
		diameter:       old.diameter,
		logFactor:      old.logFactor,
		dilationCutoff: old.dilationCutoff,
		samplingSeed:   old.samplingSeed,
		generation:     old.generation + 1,
		repair: &RepairInfo{
			Touched:   touched,
			Inserted:  len(delta.Insert),
			Deleted:   len(delta.Delete),
			Rechecked: len(recheck),
		},
		buildCost:    cost.Cost{Wall: time.Since(start)},
		phases:       old.phases,
		qualitySum:   old.qualitySum,
		servRounds:   servRounds,
		servMessages: servMessages,
	}, nil
}

// changedParts lists, ascending, the parts whose shortcut list in newH is
// not their list in oldH carried through the edge remap oldToNew (a
// deleted edge maps to -1, an inserted one has no preimage, so either
// marks its part). Compared in place: no remapped copy is built.
func changedParts(oldH, newH [][]graph.EdgeID, oldToNew []graph.EdgeID) []int {
	var out []int
	for pi, h := range newH {
		if !sameUnderRemap(oldH[pi], h, oldToNew) {
			out = append(out, pi)
		}
	}
	return out
}

func sameUnderRemap(oldList, newList, oldToNew []graph.EdgeID) bool {
	if len(oldList) != len(newList) {
		return false
	}
	for j, e := range oldList {
		if oldToNew[e] != newList[j] {
			return false
		}
	}
	return true
}
