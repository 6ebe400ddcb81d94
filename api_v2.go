package repro

import (
	"context"

	"repro/internal/congest"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/mst"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/shortcut"
	"repro/internal/sssp"
	"repro/internal/twoecss"
)

// Context-first entry points over one functional-option vocabulary.
//
// Every long-running operation takes a context.Context first and a list of
// Options last; cancellation is cooperative and checked at round
// granularity (every CONGEST round barrier, every scheduler drain step,
// every executor checkout), so a canceled call returns within one round
// with a *Error of KindCanceled/KindDeadline that also satisfies
// errors.Is(err, context.Canceled) / context.DeadlineExceeded. Randomness
// comes from WithSeed (splitmix64-derived, equal seeds ⇒ bit-identical
// results). Results carry the unified Cost.

// Cost is the unified v2 cost accounting, embedded in every result type:
// simulated rounds and messages, realized scheduler stats, and wall time.
type Cost = cost.Cost

// BuildShortcutsCtx runs the centralized sampling construction of Section 2
// under ctx. Requires WithSeed.
func BuildShortcutsCtx(ctx context.Context, g *Graph, p *Partition, opts ...Option) (*Shortcuts, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return shortcut.Build(g, p, shortcut.Options{
		Diameter:  cfg.Diameter,
		Reps:      cfg.Reps,
		LogFactor: cfg.SamplingBoost,
		Rng:       cfg.rng(),
		Ctx:       ctx,
	})
}

// BuildShortcutsDistributedCtx runs the full distributed pipeline of
// Section 2 on the CONGEST simulator under ctx, cancelable at every
// simulated round and scheduler drain step. Requires WithSeed.
func BuildShortcutsDistributedCtx(ctx context.Context, g *Graph, p *Partition, opts ...Option) (*DistShortcutResult, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return shortcut.BuildDistributed(g, p, shortcut.DistOptions{
		Rng:           cfg.rng(),
		LogFactor:     cfg.SamplingBoost,
		Reps:          cfg.Reps,
		KnownDiameter: cfg.KnownDiameter,
		MaxRounds:     cfg.MaxRounds,
		Ctx:           ctx,
	})
}

// BuildShortcutsDeterministicCtx runs the derandomized variant under ctx
// (experiment A4; no randomness required).
func BuildShortcutsDeterministicCtx(ctx context.Context, g *Graph, p *Partition, opts ...Option) (*Shortcuts, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return shortcut.BuildDeterministic(g, p, shortcut.Options{
		Diameter:  cfg.Diameter,
		Reps:      cfg.Reps,
		LogFactor: cfg.SamplingBoost,
		Rng:       cfg.rng(),
		Ctx:       ctx,
	})
}

// BuildShortcutsLocalCtx runs the locality-restricted variant under ctx
// (experiment A5). Requires WithSeed; WithRadius bounds the sampling
// horizon.
func BuildShortcutsLocalCtx(ctx context.Context, g *Graph, p *Partition, opts ...Option) (*Shortcuts, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return shortcut.BuildLocal(g, p, shortcut.LocalOptions{
		Options: shortcut.Options{
			Diameter:  cfg.Diameter,
			Reps:      cfg.Reps,
			LogFactor: cfg.SamplingBoost,
			Rng:       cfg.rng(),
			Ctx:       ctx,
		},
		Radius: cfg.Radius,
	})
}

// MSTDistributedCtx computes the MST with Borůvka phases through
// low-congestion shortcuts (Corollary 1.2) under ctx. Requires WithSeed.
func MSTDistributedCtx(ctx context.Context, g *Graph, w Weights, opts ...Option) (*MSTDistResult, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return mst.Distributed(g, w, cfg.mstOptions(ctx))
}

func (c *Config) mstOptions(ctx context.Context) mst.DistOptions {
	return mst.DistOptions{
		Rng:       c.rng(),
		Diameter:  c.Diameter,
		LogFactor: c.SamplingBoost,
		Baseline:  c.Baseline,
		MaxRounds: c.MaxRounds,
		Ctx:       ctx,
	}
}

// SSSPApproxCtx computes approximate SSSP distances through the
// shortcut-MST (Corollary 4.2 shape) under ctx. Requires WithSeed.
func SSSPApproxCtx(ctx context.Context, g *Graph, w Weights, src NodeID, opts ...Option) (*SSSPTreeResult, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return sssp.TreeApprox(g, w, src, sssp.TreeOptions{
		Rng:       cfg.rng(),
		Diameter:  cfg.Diameter,
		LogFactor: cfg.SamplingBoost,
		MaxRounds: cfg.MaxRounds,
		Ctx:       ctx,
	})
}

// MinCutApproxCtx approximates the minimum cut via greedy tree packing over
// the shortcut-MST under ctx. WithEps tightens the approximation (WithTrees
// sets the packed count explicitly and wins); WithTree seeds the packing
// with a prebuilt spanning tree. Requires WithSeed.
func MinCutApproxCtx(ctx context.Context, g *Graph, w Weights, opts ...Option) (*MinCutApproxResult, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	if err := checkTree(g, cfg.Tree); err != nil {
		return nil, err
	}
	return mincut.Approx(g, w, mincut.ApproxOptions{
		Rng:         cfg.rng(),
		Trees:       cfg.mincutTrees(g.NumNodes()),
		Diameter:    cfg.Diameter,
		LogFactor:   cfg.SamplingBoost,
		Distributed: cfg.DistributedAccounting,
		FirstTree:   cfg.Tree,
		Ctx:         ctx,
	})
}

// TwoECSSCtx computes the approximate minimum-weight 2-ECSS under ctx
// (Corollary 4.3 shape). Requires WithSeed unless WithTree supplies a
// prebuilt spanning tree.
func TwoECSSCtx(ctx context.Context, g *Graph, w Weights, opts ...Option) (*TwoECSSResult, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	if err := checkTree(g, cfg.Tree); err != nil {
		return nil, err
	}
	return twoecss.Approx(g, w, twoecss.Options{
		Rng:         cfg.rng(),
		Diameter:    cfg.Diameter,
		LogFactor:   cfg.SamplingBoost,
		Distributed: cfg.DistributedAccounting,
		Tree:        cfg.Tree,
		Ctx:         ctx,
	})
}

// checkTree rejects a WithTree that is not a spanning tree of g: every edge
// ID must lie in [0, m), there must be exactly n−1 of them, and none may
// close a cycle. The engines index by these IDs unchecked, so the facade
// checks the caller's tree once where it enters; the serving path passes
// its snapshot's already-verified tree straight through.
func checkTree(g *Graph, tree []EdgeID) error {
	const op = "repro.WithTree"
	if len(tree) == 0 {
		return nil
	}
	n, m := g.NumNodes(), g.NumEdges()
	if len(tree) != n-1 {
		return reproerr.Invalid(op, "tree has %d edges, a spanning tree of %d nodes has %d", len(tree), n, n-1)
	}
	uf := mst.NewUnionFind(n)
	for _, e := range tree {
		if e < 0 || int(e) >= m {
			return reproerr.Invalid(op, "tree edge %d out of range [0,%d)", e, m)
		}
		u, v := g.EdgeEndpoints(e)
		if !uf.Union(int32(u), int32(v)) {
			return reproerr.Invalid(op, "tree edge %d closes a cycle", e)
		}
	}
	return nil
}

// NewSnapshotCtx builds the serving state under ctx: partition validation,
// centralized shortcut construction, quality measurement, the shortcut-MST
// from the centralized Borůvka mirror, and tree indexing, cancelable
// between sampling steps and between the quality measurement's 64-source
// sweeps. The snapshot reports zero simulated cost, and its sssp answers
// charge zero rounds and messages, unless WithDistributedAccounting(true)
// also runs the simulated CONGEST shortcut-MST to record its cost; that
// simulation checks ctx at every simulated round, so a multi-second
// accounted build aborts within one round of cancellation. Requires
// WithSeed.
func NewSnapshotCtx(ctx context.Context, g *Graph, w Weights, parts [][]NodeID, opts ...Option) (*Snapshot, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
		Rng:         cfg.rng(),
		Diameter:    cfg.Diameter,
		LogFactor:   cfg.SamplingBoost,
		MaxRounds:   cfg.MaxRounds,
		Distributed: cfg.DistributedAccounting,
		Ctx:         ctx,
	})
}

// NewServerV2 builds a server over snap from functional options
// (WithExecutors, WithSeed / WithServerSeed, WithMetrics). The server's
// context-first query methods — ServeCtx, ServeBatchCtx, ServeSSSPIntoCtx —
// gate executor checkout on the context and check it during execution; a
// canceled query leaves the pool fully usable.
func NewServerV2(snap *Snapshot, opts ...Option) (*Server, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(snap, cfg.serverOptions()), nil
}

func (c *Config) serverOptions() serve.ServerOptions {
	return serve.ServerOptions{
		Executors: c.Executors,
		Seed:      c.serverSeed(),
		Metrics:   c.Metrics,
	}
}

// Dynamic graphs: incremental snapshot updates and hot-swap serving.
//
// A Snapshot built by NewSnapshotCtx is one link of a delta chain:
// ApplyDeltaCtx absorbs a batch of edge mutations and returns a new
// Snapshot whose query answers are bit-identical to a from-scratch
// NewSnapshotCtx on the post-delta graph with the same seed — never
// simulating the MST construction, even when the build was accounted, and
// re-measuring dilation only for the parts the delta touches. A Store
// hot-swaps the active snapshot under live traffic; NewStoreServerV2 serves
// whatever the store holds, pinning the epoch per query.

// Delta is a batch of edge mutations over a fixed vertex set: deletions
// (by endpoints) applied before insertions (with weights).
type Delta = graph.Delta

// DeltaEdge is one edge insertion of a Delta.
type DeltaEdge = graph.DeltaEdge

// DeltaRemap records how ApplyGraphDelta renumbered edges (EdgeIDs are
// canonical, so mutations shift them); per-edge annotations migrate through
// it.
type DeltaRemap = graph.DeltaRemap

// ApplyGraphDelta applies a batch of edge mutations to a graph, returning
// the new graph (bit-identical to building the post-delta edge set from
// scratch), migrated weights, and the edge-ID remap. The input graph is
// never modified. Snapshot holders normally use ApplyDeltaCtx, which does
// this and derives the new serving state in one step.
func ApplyGraphDelta(g *Graph, w Weights, d Delta) (*Graph, Weights, *DeltaRemap, error) {
	return graph.ApplyDelta(g, w, d)
}

// Store owns a chain of epoch-tagged Snapshots and atomically swaps the
// active one under live traffic; retired snapshots drain lock-free (see
// Store.SwapCtx).
type Store = serve.Store

// RepairInfo describes the delta that produced a snapshot
// (Snapshot.Repair).
type RepairInfo = serve.RepairInfo

// NewStore creates a store serving snap at epoch 1.
func NewStore(snap *Snapshot) *Store { return serve.NewStore(snap) }

// NewStoreV2 is NewStore from functional options: WithMetrics attaches an
// observability registry recording swap count/latency, drain waits, lease
// pins, and stale-generation rejections. Share the registry with the
// servers over this store so one exposition covers the whole stack.
func NewStoreV2(snap *Snapshot, opts ...Option) (*Store, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return serve.NewStoreWith(snap, serve.StoreOptions{Metrics: cfg.Metrics}), nil
}

// ApplyDeltaCtx applies a batch of edge mutations to a snapshot's graph and
// derives the new serving state under ctx: the shortcuts are derived from
// the snapshot's own with its sampling seed and diameter (per-edge
// sampling streams keep every surviving edge's draws, so only the inserted
// edges are drawn), dilation is re-measured only for the parts whose
// augmented subgraph changed, and the shortcut-MST is re-derived through
// the centralized Borůvka mirror. The new snapshot shares no memory with
// snap, which may be closed once it is retired. The result is bit-identical, query for query, to a
// from-scratch NewSnapshotCtx on the post-delta graph with the same seed
// and WithDiameter(snap.Diameter()) — the update pins the base build's
// diameter, so a rebuild that lets the diameter re-estimate from the
// mutated graph may derive different (equally valid) parameters. Its
// Cost() is the update's wall time, with zero simulated rounds and
// messages. The sampling seed is inherited from the snapshot's build, so
// the update takes no options.
func ApplyDeltaCtx(ctx context.Context, snap *Snapshot, delta Delta) (*Snapshot, error) {
	return serve.ApplyDelta(ctx, snap, delta, serve.DeltaOptions{})
}

// NewStoreServerV2 builds a server over a store from functional options
// (WithExecutors, WithSeed / WithServerSeed, WithMetrics): every query is
// answered against the store's snapshot current at that query's executor
// checkout, with the epoch pinned until the answer is extracted — a
// concurrent Store.Swap never tears an answer or a batch.
func NewStoreServerV2(store *Store, opts ...Option) (*Server, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return serve.NewStoreServer(store, cfg.serverOptions()), nil
}

// RunCongestCtx executes one Program per node of g on the unified CONGEST
// engine under ctx, cancelable at every round barrier.
func RunCongestCtx(ctx context.Context, g *Graph, factory CongestFactory, opts ...Option) (CongestStats, []CongestProgram, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return CongestStats{}, nil, err
	}
	return congest.Run(g, factory, congest.Options{
		MaxRounds: cfg.MaxRounds,
		Ctx:       ctx,
	})
}
