package expt

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// E15Dynamic measures the dynamic-graph update path: the latency of
// absorbing an edge delta into a served snapshot (serve.ApplyDelta:
// shortcuts derived from the old ones, dilation re-measured only for the
// touched parts, the MST re-derived by the centralized mirror), swept over
// delta sizes, against the default from-scratch build each update replaces
// (the same mirror, no simulated MST; every part's dilation measured).
// Per-edge sampling streams keep every part the delta does not reach
// unchanged, so only the inserted edges are drawn and only the touched
// parts' dilation is re-measured, while the new snapshot stays
// bit-identical to a rebuild (pinned by the differential suite in
// internal/serve).
func E15Dynamic(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E15: incremental update latency vs delta size (derived shortcuts, touched parts re-measured)",
		"n", "delta", "update ms", "touched parts", "parts", "build ms", "speedup")
	n := cfg.DistSizes[len(cfg.DistSizes)-1]
	rng := cfg.rng(18_000_000_000)
	g, err := gen.ClusterChain(n, 6, rng)
	if err != nil {
		return nil, fmt.Errorf("E15: %w", err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	numParts := minInt(64, maxInt(4, n/64))
	parts, err := gen.VoronoiParts(g, numParts, rng)
	if err != nil {
		return nil, fmt.Errorf("E15: %w", err)
	}

	buildStart := time.Now()
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
		Rng: rng, Diameter: 6, LogFactor: cfg.LogFactor, Ctx: cfg.Ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("E15: snapshot: %w", err)
	}
	buildTime := time.Since(buildStart)
	buildMS := float64(buildTime) / float64(time.Millisecond)

	for i, size := range cfg.DeltaSizes {
		d, err := gen.InsertDelta(g, size, cfg.rng(int64(19_000_000_000+i)))
		if err != nil {
			return nil, fmt.Errorf("E15 delta=%d: %w", size, err)
		}
		updStart := time.Now()
		next, err := serve.ApplyDelta(cfg.ctx(), snap, d, serve.DeltaOptions{})
		if err != nil {
			return nil, fmt.Errorf("E15 delta=%d: %w", size, err)
		}
		upd := time.Since(updStart)
		updMS := float64(upd) / float64(time.Millisecond)
		rep := next.Repair()
		t.AddRow(I(n), I(size), F(updMS), I(len(rep.Touched)), I(numParts),
			F(buildMS), F(buildMS/updMS))
	}
	t.AddNote("every delta is applied to the same base snapshot; updated snapshots are bit-identical to a from-scratch rebuild (differential suite)")
	t.AddNote("neither side simulates the MST (build ms is a default build, without distributed accounting); an update re-measures only the touched parts' dilation, and the serving layer stays live under continuous mutation (hot-swap via serve.Store)")
	t.SetMeta("build_ms", buildMS)
	return t, nil
}
