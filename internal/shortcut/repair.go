package shortcut

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// RepairOptions configures RepairDistributed. Seed, Diameter and LogFactor
// must be the values of the original seeded build — they pin the sampling
// streams and parameters the repair reproduces. The repair reproduces a
// build with the default repetitions (Options.Reps = 0, the paper's D),
// the only kind the serving layer makes.
type RepairOptions struct {
	// Seed is the sampling seed of the original BuildSeeded run. Required
	// in the sense that a different seed repairs toward a different
	// from-scratch build.
	Seed uint64
	// Diameter is the pinned build diameter (must be ≥ 1; dynamic updates
	// never re-estimate it, so repair and rebuild derive the same params).
	Diameter int
	// LogFactor as in Options (0 = the paper's constant).
	LogFactor float64
	// Rng is ignored (and may be nil): the repair draws nothing of its own.
	Rng *rand.Rand
}

// RepairResult is the outcome of RepairDistributed.
type RepairResult struct {
	// S is the repaired assignment over the new graph — bit-identical to
	// BuildSeeded on the new graph with the original seed.
	S *Shortcuts
	// Touched lists the part indices whose shortcut subgraph changed (in
	// ascending order).
	Touched []int
}

// RepairDistributed is DeriveSeeded with the parameters derived from opts
// as BuildSeeded derives them: p must be the (rebound) partition over g,
// old the assignment being repaired, rm the edge remap of the delta and
// inserted the new-graph EdgeIDs of the inserted edges. serve.ApplyDelta
// calls DeriveSeeded directly; this wrapper remains only for servebench's
// delta replay.
func RepairDistributed(
	g *graph.Graph,
	p *Partition,
	old *Shortcuts,
	rm *graph.DeltaRemap,
	inserted []graph.EdgeID,
	opts RepairOptions,
) (*RepairResult, error) {
	const op = "shortcut.RepairDistributed"
	if err := requireOver(op, g, p); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, reproerr.Invalid(op, "empty graph")
	}
	if opts.Diameter < 1 {
		return nil, reproerr.Invalid(op, "diameter %d < 1", opts.Diameter)
	}
	params := DeriveParams(g.NumNodes(), opts.Diameter, 0, opts.LogFactor)
	s, touched, err := DeriveSeeded(p, old, rm, inserted, params, opts.Seed)
	if err != nil {
		return nil, err
	}
	return &RepairResult{S: s, Touched: touched}, nil
}
