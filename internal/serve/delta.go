package serve

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
	"repro/internal/sched"
	"repro/internal/shortcut"
	"repro/internal/sssp"
)

// repairState is the scheduler scratch one repair's verification phases
// run on: the random-delay Runner and extraction forest. Pooled so a
// continuous delta stream amortizes the scheduler's flat buffers across
// repairs — PR 2's Runner-reuse extended to the update path.
type repairState struct {
	runner sched.Runner
	forest sched.BFSForest
}

var repairPool = sync.Pool{New: func() any { return new(repairState) }}

// DeltaOptions configures ApplyDelta.
type DeltaOptions struct {
	// Workers selects the scheduler parallelism of the repair's
	// verification phases; 0 = sequential. The repaired snapshot is
	// identical for every setting.
	Workers int
	// MaxRounds bounds each scheduled verification phase (0 = default).
	MaxRounds int
}

// ApplyDelta applies a batch of edge mutations to a snapshot's graph and
// repairs the serving state part-locally:
//
//   - the CSR graph and weights are rebuilt through graph.ApplyDelta
//     (bit-identical to a from-scratch build of the post-delta edge set);
//   - parts that lost an intra-part edge are re-checked for connectivity
//     (a disconnecting delta fails with KindInvalidInput — repartition and
//     rebuild from scratch in that case);
//   - the shortcut assignment is repaired by shortcut.RepairDistributed:
//     surviving edges keep their seeded draws, inserted edges get fresh
//     deterministic ones, and only the touched parts re-run the paper's
//     random-delay verification;
//   - per-part dilation is re-measured only for parts whose augmented
//     subgraph changed; congestion is recounted (O(m), and m-bound, not
//     build-bound);
//   - the shortcut-MST is re-derived through the centralized Borůvka
//     mirror, bit-identical to the simulated construction a rebuild runs.
//
// The result is a new immutable Snapshot whose query answers are
// bit-identical to NewSnapshot on the post-delta graph with the same
// derived seeds and the same pinned diameter — the property the
// differential test harness pins. The repair always reuses the base
// build's diameter (Snapshot.Diameter()); a rebuild that passes Diameter 0
// re-estimates it from the mutated graph and may legitimately derive
// different parameters, so comparisons must pin it explicitly. The old
// snapshot is untouched and remains serveable (a Store hot-swaps between
// them). The new snapshot's Cost() reports the repair's price; its
// Generation() increments; Repair() describes what was touched.
//
// Answers' simulated cost metadata (rounds/messages) is carried over from
// the original build — the repair deliberately does not re-run the
// simulated MST construction that metadata describes.
func ApplyDelta(ctx context.Context, old *Snapshot, delta graph.Delta, opts DeltaOptions) (*Snapshot, error) {
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

	// The repair's verification schedule needs randomness for its delays;
	// derive it from the sampling seed and the generation so the whole
	// chain is a pure function of the original WithSeed. (The delays never
	// influence the repaired state — only the schedule it is verified
	// under.)
	h := old.samplingSeed ^ (old.generation+1)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	repairRng := rand.New(rand.NewSource(int64(h >> 1)))

	rs := repairPool.Get().(*repairState)
	rr, err := shortcut.RepairDistributed(g2, p2, old.s, rm, rm.Inserted, shortcut.RepairOptions{
		Seed:      old.samplingSeed,
		Diameter:  old.diameter,
		LogFactor: old.logFactor,
		Rng:       repairRng,
		Workers:   opts.Workers,
		MaxRounds: opts.MaxRounds,
		Runner:    &rs.runner,
		Forest:    &rs.forest,
		Ctx:       ctx,
	})
	repairPool.Put(rs)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "repair: %w", err)
	}
	for _, pi := range rr.Touched {
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
		pq, err := rr.S.PartDilation(pi, old.dilationCutoff)
		if err != nil {
			return nil, reproerr.Errorf(op, reproerr.KindOf(err), "quality: %w", err)
		}
		partDil[pi] = pq
	}
	quality := shortcut.AggregateQuality(partDil, rr.S.Congestion())

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

	buildCost := rr.Cost
	buildCost.Wall = time.Since(start)
	return &Snapshot{
		g:              g2,
		w:              w2,
		p:              p2,
		s:              rr.S,
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
			Touched:   rr.Touched,
			Inserted:  len(delta.Insert),
			Deleted:   len(delta.Delete),
			Rechecked: len(recheck),
		},
		buildCost:    buildCost,
		phases:       old.phases,
		qualitySum:   old.qualitySum,
		servRounds:   servRounds,
		servMessages: servMessages,
	}, nil
}
