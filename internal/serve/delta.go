package serve

import (
	"context"
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
//   - the shortcut assignment is derived from the old one by
//     shortcut.DeriveSeeded, with the old snapshot's sampling seed,
//     diameter and log factor: the old lists under the edge remap, plus
//     each inserted edge's Step-1 membership and seeded draws. It equals
//     shortcut.BuildSeeded on the post-delta graph, and no surviving edge
//     is drawn again;
//   - per-part dilation is re-measured only for parts whose augmented
//     subgraph changed (H changed, or an intra-part edge came or went), in
//     one shortcut.DilationsOf pass over their ascending list; congestion
//     is recounted (O(m));
//   - the shortcut-MST is re-derived through the centralized Borůvka
//     mirror, as NewSnapshot derives it (bit-identical to the simulated
//     construction, which neither path needs for the tree).
//
// The result is a new immutable Snapshot whose query answers are
// bit-identical to NewSnapshot on the post-delta graph with the same
// derived seeds and the same pinned diameter — the property the
// differential test harness pins. The update always reuses the base
// build's diameter (Snapshot.Diameter()); a rebuild that passes Diameter 0
// re-estimates it from the mutated graph and may legitimately derive
// different parameters, so comparisons must pin it explicitly. The old
// snapshot is untouched and remains serveable (a Store hot-swaps between
// them), and the new one shares no memory with it: a base loaded from a
// file mapping may be closed while its successor serves. A base whose
// stored shortcut list is out of range or not ascending (possible only in
// a file loaded with SkipVerify) fails the update with KindCorrupt. The
// new snapshot's Cost() is the update's wall time, with zero
// simulated rounds and messages; its Generation() increments; Repair()
// describes what was touched.
//
// Answers' simulated cost metadata (rounds/messages) is carried over only
// from a simulated build (SnapshotOptions.Distributed): the update
// deliberately does not re-run the simulated MST construction that
// metadata describes, and a chain whose build simulated nothing charges
// its answers nothing.
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
	// recheck) and parts whose dilation must be re-measured — resolved
	// against the OLD graph's partition (part membership never shifts
	// under a delta).
	rechecked := make([]bool, old.p.NumParts())
	remeasured := make([]bool, old.p.NumParts())
	for _, uv := range delta.Delete {
		pu, pv := old.p.PartOf(uv[0]), old.p.PartOf(uv[1])
		if pu >= 0 && pu == pv {
			rechecked[pu] = true
			remeasured[pu] = true
		}
	}
	for _, de := range delta.Insert {
		pu, pv := old.p.PartOf(de.U), old.p.PartOf(de.V)
		if pu >= 0 && pu == pv {
			remeasured[pu] = true
		}
	}
	// Ascending: a deterministic validation order (and error attribution).
	recheck := marked(rechecked)

	p2, err := old.p.Rebind(g2, recheck)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "%w", err)
	}

	if err := reproerr.CtxCheck(op, ctx); err != nil {
		return nil, err
	}
	s2, touched, err := shortcut.DeriveSeeded(p2, old.s, rm, rm.Inserted,
		shortcut.DeriveParams(g2.NumNodes(), old.diameter, 0, old.logFactor), old.samplingSeed)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "shortcuts: %w", err)
	}
	for _, pi := range touched {
		remeasured[pi] = true
	}
	remeasure := marked(remeasured)

	// Re-measure dilation only where the augmented subgraph changed;
	// everything else keeps its per-part record (dilation is a pure
	// function of the part's augmented subgraph, which did not change).
	measured, err := s2.DilationsOf(ctx, remeasure, old.dilationCutoff)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "quality: %w", err)
	}
	partDil := make([]shortcut.Quality, len(old.partDil))
	copy(partDil, old.partDil)
	for k, pi := range remeasure {
		partDil[pi] = measured[k]
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
	var servRounds int
	var servMessages int64
	if old.simulated() {
		servRounds, servMessages = sssp.TreeServeCost(g2.NumNodes(), old.qualitySum, len(tree))
	}

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

// marked lists, ascending, the indices whose flag is set.
func marked(flags []bool) []int {
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, i)
		}
	}
	return out
}
