// Package serve is the shortcut serving layer: build the paper's expensive
// artifacts once, answer many application queries concurrently.
//
// The paper's central economy (Corollaries 1.2, 4.2, 4.3) is that a single
// shortcut construction amortizes across a *family* of optimization problems
// — MST, approximate min cut, approximate SSSP, approximate 2-ECSS. The
// batch entry points (`mst.Distributed`, `sssp.TreeApprox`, …) each pay the
// full construction per call; this package converts the repository into a
// query-serving system:
//
//   - Snapshot: an immutable bundle of graph + weights + partition +
//     constructed Shortcuts + the derived shortcut-MST and its query index
//     (a rooted BFS order of the tree, derived from the MST edge list at
//     build, after a delta and on every load), built once and shared
//     read-only by any number of concurrent readers. The edge list is the
//     only stored form of the tree.
//   - Server: a pool of per-worker executor contexts (the sssp.TreeScratch
//     root-path stack and batch dedup scratch) answering typed queries —
//     SSSPQuery, MSTQuery, MinCutQuery, TwoECSSQuery, QualityQuery —
//     concurrently, each answer bit-identical to its single-threaded
//     counterpart.
//   - ServeBatch: batched submission on one executor and one pinned
//     snapshot; its SSSP queries are deduplicated by root, and each
//     distinct root runs one warm sweep over the tree's rooted order.
//
// See DESIGN.md "Serving architecture" for the immutability and ownership
// arguments.
package serve

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/reproerr"
	"repro/internal/shortcut"
	"repro/internal/snapio"
	"repro/internal/sssp"
)

// dilationCutoff bounds the exact per-part dilation of a build, as in
// Shortcuts.Dilation: a part above it reports the [ecc, 2·ecc] bracket of
// its leader's eccentricity. The snapshot records the cutoff it was built
// with, and the file format persists it, so a delta on a loaded snapshot
// measures touched parts under the same cutoff as the build that produced
// it. E16's n=100,000 build has five parts of ~20,000 nodes, whose exact
// dilation costs ~10 s against ~60 ms for their brackets (DESIGN.md
// "Measuring dilation"), so the bracket path stays.
const dilationCutoff = 3000

// SnapshotOptions configures NewSnapshot.
type SnapshotOptions struct {
	// Rng drives the build. Required. Its first draw is the shortcut
	// sampling seed, and without Distributed that is all the build draws;
	// with Distributed the simulated MST's scheduled phases draw from it
	// next. It is consumed only during the build; queries never touch it.
	Rng *rand.Rand
	// Diameter is the graph diameter used to derive shortcut parameters
	// (0 = double-sweep estimate).
	Diameter int
	// LogFactor as in shortcut.Options.
	LogFactor float64
	// MaxRounds bounds each simulated build phase (0 = default). Without
	// Distributed the build simulates nothing, so it has no effect.
	MaxRounds int
	// Distributed runs the simulated CONGEST shortcut-MST (mst.Distributed)
	// after the build, to record its cost: the snapshot's simulated rounds,
	// messages and phases, and the marginal rounds and messages every sssp
	// answer carries. The served tree comes from the Borůvka mirror either
	// way; without Distributed all of that simulated cost is zero.
	Distributed bool
	// Ctx, when non-nil, cancels the build cooperatively: the shortcut
	// construction checks it between sampling steps, the quality
	// measurement between 64-source sweeps, and, with Distributed, the
	// simulated shortcut-MST at every round and scheduler drain step.
	// Without Distributed there are no simulated rounds to cancel.
	Ctx context.Context
}

// Snapshot is the immutable serving state: everything the query family needs,
// built once. After NewSnapshot returns, no method mutates the snapshot — it
// is safe for unlimited concurrent readers (see DESIGN.md for the argument).
//
// Snapshots form chains under graph deltas: ApplyDelta derives a new
// Snapshot from an old one (bit-identical to a from-scratch rebuild on the
// post-delta graph), with Generation counting the chain position. The old
// snapshot remains valid and immutable — a Store swaps between them under
// live traffic.
type Snapshot struct {
	g *graph.Graph
	w graph.Weights
	p *shortcut.Partition
	s *shortcut.Shortcuts

	quality shortcut.Quality   // measured once at build
	partDil []shortcut.Quality // per-part dilation (congestion zero), for quality queries and delta updates

	tree       []graph.EdgeID // the shortcut-MST, derived once
	treeWeight float64
	ti         *sssp.TreeIndex // rooted order of tree, for warm SSSP walks; derived, never persisted

	diameter       int
	logFactor      float64
	dilationCutoff int

	// samplingSeed keys the per-arc shortcut sampling streams
	// (shortcut.BuildSeeded); generation counts delta applications since
	// the from-scratch build; repair describes the delta that produced this
	// snapshot (nil for generation 0).
	samplingSeed uint64
	generation   uint64
	repair       *RepairInfo

	// Build cost (paid once) and per-query marginal cost (charged per warm
	// SSSP answer). All but buildCost.Wall are simulated, and zero unless
	// the snapshot descends from a build with SnapshotOptions.Distributed.
	buildCost    cost.Cost
	phases       int
	qualitySum   int
	servRounds   int
	servMessages int64

	// backing is the container file this snapshot's arrays alias when it was
	// produced by LoadSnapshot (nil for built snapshots); Close releases it.
	backing *snapio.File
}

// RepairInfo describes the delta update that produced a snapshot.
type RepairInfo struct {
	// Touched lists the parts whose shortcut subgraph H changed under the
	// delta's edge remap (ascending); with the parts that gained or lost an
	// intra-part edge, these are the parts whose dilation was re-measured.
	Touched []int
	// Inserted and Deleted count the delta's edge mutations.
	Inserted, Deleted int
	// Rechecked counts the parts whose connectivity an edge deletion forced
	// us to revalidate.
	Rechecked int
}

// NewSnapshot builds the serving state for graph g with weights w and the
// given vertex-disjoint connected parts: it validates the partition, runs
// the centralized shortcut construction of Section 2, measures its quality,
// derives the shortcut-MST through the centralized Borůvka mirror
// (mst.BoruvkaMirror, the tree mst.Distributed builds, in the same order),
// and indexes the tree for warm per-source queries. With
// opts.Distributed it then runs the simulated CONGEST shortcut-MST only to
// record its cost; without it the snapshot's simulated rounds, messages and
// phases are zero, and so are the rounds and messages its sssp answers
// carry.
func NewSnapshot(g *graph.Graph, w graph.Weights, parts [][]graph.NodeID, opts SnapshotOptions) (*Snapshot, error) {
	const op = "serve.NewSnapshot"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New(op, reproerr.KindInvalidInput, err)
	}
	if g.NumNodes() == 0 {
		return nil, reproerr.Invalid(op, "empty graph")
	}
	start := time.Now()
	d := opts.Diameter
	if d == 0 {
		lo, _ := graph.DiameterBounds(g)
		d = int(lo)
		if d < 1 {
			d = 1
		}
	}

	p, err := shortcut.NewPartition(g, parts)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "%w", err)
	}
	// The sampling seed is the build's first draw: the whole shortcut
	// assignment becomes a pure per-edge function of (graph, partition,
	// seed), which is what lets ApplyDelta keep every untouched part's H
	// and dilation record and still agree bit-for-bit with a from-scratch
	// rebuild (see DESIGN.md "Dynamic snapshots").
	samplingSeed := opts.Rng.Uint64()
	s, err := shortcut.BuildSeeded(g, p, shortcut.Options{
		Diameter: d, LogFactor: opts.LogFactor, Ctx: opts.Ctx,
	}, samplingSeed)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "shortcuts: %w", err)
	}
	partDil, quality, err := measureQuality(opts.Ctx, s, dilationCutoff)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "quality: %w", err)
	}

	tree, treeWeight, err := mst.BoruvkaMirror(g, w)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "shortcut-MST: %w", err)
	}
	sn := &Snapshot{
		g:              g,
		w:              w,
		p:              p,
		s:              s,
		quality:        quality,
		partDil:        partDil,
		tree:           tree,
		treeWeight:     treeWeight,
		diameter:       d,
		logFactor:      opts.LogFactor,
		dilationCutoff: dilationCutoff,
		samplingSeed:   samplingSeed,
	}
	if opts.Distributed {
		mres, err := mst.Distributed(g, w, mst.DistOptions{
			Rng:       opts.Rng,
			Diameter:  d,
			LogFactor: opts.LogFactor,
			MaxRounds: opts.MaxRounds,
			Ctx:       opts.Ctx,
		})
		if err != nil {
			return nil, reproerr.Errorf(op, reproerr.KindOf(err), "shortcut-MST: %w", err)
		}
		sn.buildCost, sn.phases, sn.qualitySum = mres.Cost, mres.Phases, mres.QualitySum
		sn.servRounds, sn.servMessages = sssp.TreeServeCost(g.NumNodes(), mres.QualitySum, len(tree))
	}
	if sn.ti, err = sssp.NewTreeIndex(g, w, tree); err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindOf(err), "tree index: %w", err)
	}
	sn.buildCost.Wall = time.Since(start)
	return sn, nil
}

// simulated reports whether the snapshot descends from a build with
// SnapshotOptions.Distributed: sssp.TreeServeCost charges at least one
// round whenever it is called, and only such a build calls it. servRounds
// is persisted, so the answer survives a file round trip and a delta chain.
func (sn *Snapshot) simulated() bool { return sn.servRounds > 0 }

// measureQuality computes every part's dilation (cancelable between
// 64-source sweeps, the expensive unit) plus the assignment's congestion,
// returning both the per-part record the delta path reuses and the
// aggregated Quality. Measurement and fold live in internal/shortcut
// (PartDilations / AggregateQuality), shared with DilationCtx, so there is
// exactly one definition of "quality" for builds, rebuilds, and deltas.
func measureQuality(ctx context.Context, s *shortcut.Shortcuts, cutoff int) ([]shortcut.Quality, shortcut.Quality, error) {
	partDil, err := s.PartDilations(ctx, cutoff)
	if err != nil {
		return nil, shortcut.Quality{}, err
	}
	return partDil, shortcut.AggregateQuality(partDil, s.Congestion()), nil
}

// Graph returns the underlying graph.
func (sn *Snapshot) Graph() *graph.Graph { return sn.g }

// Weights returns the edge weights. Callers must not modify them.
func (sn *Snapshot) Weights() graph.Weights { return sn.w }

// Partition returns the validated partition.
func (sn *Snapshot) Partition() *shortcut.Partition { return sn.p }

// Shortcuts returns the constructed shortcut assignment.
func (sn *Snapshot) Shortcuts() *shortcut.Shortcuts { return sn.s }

// Quality returns the assignment's quality, measured once at build.
func (sn *Snapshot) Quality() shortcut.Quality { return sn.quality }

// Tree returns the derived shortcut-MST edges. Callers must not modify the
// returned slice — it is shared by every MST answer.
func (sn *Snapshot) Tree() []graph.EdgeID { return sn.tree }

// TreeWeight returns the shortcut-MST's total weight.
func (sn *Snapshot) TreeWeight() float64 { return sn.treeWeight }

// BuildCost returns the simulated cost of deriving the shortcut-MST — the
// one-time investment that warm queries amortize. It is zero unless the
// build ran with SnapshotOptions.Distributed.
func (sn *Snapshot) BuildCost() (rounds int, messages int64, phases int) {
	return sn.buildCost.Rounds, sn.buildCost.Messages, sn.phases
}

// Phases returns the number of Borůvka phases the simulated shortcut-MST
// took — the v2 companion to Cost() (BuildCost's third value). It is zero
// unless the snapshot descends from a build with SnapshotOptions.Distributed.
func (sn *Snapshot) Phases() int { return sn.phases }

// Cost returns the unified v2 accounting of the snapshot build: the
// simulated shortcut-MST's rounds/messages and scheduler stats (zero
// unless the build ran with SnapshotOptions.Distributed), plus the
// wall-clock time of the whole build (partition validation through tree
// indexing). For a delta snapshot (Generation > 0) it is the update's wall
// time alone: the update simulates nothing, so rounds, messages and
// SchedStats are zero.
func (sn *Snapshot) Cost() cost.Cost { return sn.buildCost }

// Diameter returns the build diameter the snapshot's parameters were
// derived with. Deltas pin it: every descendant reuses it, which is what
// keeps a delta chain and a from-scratch rebuild parameter-identical.
func (sn *Snapshot) Diameter() int { return sn.diameter }

// Generation returns the snapshot's position in its delta chain: 0 for a
// from-scratch build, parent+1 for each ApplyDelta.
func (sn *Snapshot) Generation() uint64 { return sn.generation }

// Repair describes the delta that produced this snapshot, or nil for a
// from-scratch build. Callers must not modify the returned struct.
func (sn *Snapshot) Repair() *RepairInfo { return sn.repair }
