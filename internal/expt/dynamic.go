package expt

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// E15Dynamic measures the dynamic-graph update path: the latency of
// absorbing an edge delta into a served snapshot by part-local repair
// (serve.ApplyDelta), swept over delta sizes, against the from-scratch
// rebuild each update replaces. The claim under test is the economics of
// Kogan–Parter's per-part construction: a delta invalidates only the parts
// it touches, so update latency scales with the touched-part count — not
// with n — while the repaired snapshot stays bit-identical to a rebuild
// (pinned by the differential suite in internal/serve).
func E15Dynamic(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E15: incremental update latency vs delta size (part-local repair)",
		"n", "delta", "update ms", "touched parts", "parts", "repair rounds", "build ms", "speedup")
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
		Rng: rng, Diameter: 6, LogFactor: cfg.LogFactor, Workers: cfg.Workers,
		Ctx: cfg.Ctx,
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
		next, err := serve.ApplyDelta(cfg.ctx(), snap, d, serve.DeltaOptions{Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("E15 delta=%d: %w", size, err)
		}
		upd := time.Since(updStart)
		updMS := float64(upd) / float64(time.Millisecond)
		rep := next.Repair()
		t.AddRow(I(n), I(size), F(updMS), I(len(rep.Touched)), I(numParts),
			I(next.Cost().Rounds), F(buildMS), F(buildMS/updMS))
	}
	t.AddNote("every delta is applied to the same base snapshot; repaired results are bit-identical to a from-scratch rebuild (differential suite)")
	t.AddNote("update latency scales with the touched-part count, not n: the serving layer stays live under continuous mutation (hot-swap via serve.Store)")
	t.SetMeta("build_ms", buildMS)
	t.SetMeta("workers", cfg.Workers)
	return t, nil
}
