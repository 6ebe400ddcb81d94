package shortcut

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/sched"
)

// ErrRepairVerify reports that a part-local repair failed its random-delay
// verification: some repaired part's truncated BFS tree no longer spans the
// part, so the caller must fall back to a full rebuild (the dynamic
// analogue of a failed diameter guess in BuildDistributed).
var ErrRepairVerify = errors.New("shortcut: repaired part tree does not span its part")

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
	// Rng drives the random delays of the verification schedule. Required.
	// It never influences the repaired assignment — only the schedule under
	// which the verification trees are grown.
	Rng *rand.Rand
	// Workers as in DistOptions.
	Workers int
}

// RepairResult is the outcome of a part-local repair.
type RepairResult struct {
	// S is the repaired assignment over the new graph — bit-identical to
	// BuildSeeded on the new graph with the original seed.
	S *Shortcuts
	// Touched lists the part indices whose shortcut subgraph changed (in
	// ascending order); only these were re-verified.
	Touched []int
	// Cost is the simulated price of the repair: the part-local reach
	// exchange plus the two scheduled phases (verification BFS and
	// convergecast). It scales with the touched parts' subgraphs, not n.
	cost.Cost
}

// RepairDistributed repairs a seeded shortcut assignment after a graph
// delta, part-locally:
//
//  1. Surviving shortcut edges are remapped to their new EdgeIDs; parts
//     that lost an edge are marked touched.
//  2. Each inserted edge contributes its Step-1 membership (incident large
//     parts take it unconditionally) and its seeded Step-2 draws — the same
//     per-(tail, head, repetition) streams BuildSeeded evaluates, so the
//     merged assignment equals the from-scratch one exactly.
//  3. Only the touched parts re-run the paper's verification: truncated BFS
//     trees grown in their augmented subgraphs under random-delay
//     scheduling, a part-local reached-bit exchange, and a scheduled
//     convergecast of the boundary flags. A non-spanning tree fails the
//     repair with ErrRepairVerify.
//
// p must be the (rebound) partition over g; old the assignment being
// repaired; rm the edge remap of the delta; inserted the new-graph EdgeIDs
// of the inserted edges.
//
// The serving path does not call it: serve.ApplyDelta reruns BuildSeeded,
// which needs no verification. It remains for servebench's delta replay.
func RepairDistributed(
	g *graph.Graph,
	p *Partition,
	old *Shortcuts,
	rm *graph.DeltaRemap,
	inserted []graph.EdgeID,
	opts RepairOptions,
) (*RepairResult, error) {
	const op = "shortcut.RepairDistributed"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, reproerr.Invalid(op, "empty graph")
	}
	if opts.Diameter < 1 {
		return nil, reproerr.Invalid(op, "diameter %d < 1", opts.Diameter)
	}
	if p.NumParts() != len(old.H) {
		return nil, reproerr.Invalid(op, "partition has %d parts, assignment %d", p.NumParts(), len(old.H))
	}
	start := time.Now()
	params := DeriveParams(n, opts.Diameter, 0, opts.LogFactor)
	numParts := p.NumParts()
	large := p.LargeParts(int(params.KD))
	largeIdxOf := largeIndex(p, large)

	// Step 1 of the repair: remap surviving shortcut edges. RemapEdges
	// preserves ascending order, so untouched parts keep their canonical
	// (sorted) H without a re-sort.
	newH := make([][]graph.EdgeID, numParts)
	touched := make([]bool, numParts)
	for i := range old.H {
		if len(old.H[i]) == 0 {
			continue
		}
		h := rm.RemapEdges(old.H[i])
		if len(h) != len(old.H[i]) {
			touched[i] = true
		}
		newH[i] = h
	}

	// Step 2: inserted edges — Step-1 membership plus seeded draws, exactly
	// the contributions BuildSeeded would compute for these arcs.
	additions := make([][]graph.EdgeID, numParts)
	all := params.P >= 1
	var logq float64
	if !all && params.P > 0 {
		logq = math.Log1p(-params.P)
	}
	for _, e := range inserted {
		u, v := g.EdgeEndpoints(e)
		uLarge, vLarge := int32(-1), int32(-1)
		if up := p.PartOf(u); up >= 0 {
			uLarge = largeIdxOf[up]
		}
		if vp := p.PartOf(v); vp >= 0 {
			vLarge = largeIdxOf[vp]
		}
		if uLarge >= 0 {
			additions[large[uLarge]] = append(additions[large[uLarge]], e)
		}
		if vLarge >= 0 {
			additions[large[vLarge]] = append(additions[large[vLarge]], e)
		}
		if params.P <= 0 || len(large) == 0 {
			continue
		}
		// seededArcHits already excludes the tail's own part (the
		// uLarge/vLarge argument); the hit callback just records the draw.
		hit := func(li int32) {
			additions[large[li]] = append(additions[large[li]], e)
		}
		for r := 0; r < params.Reps; r++ {
			seededArcHits(opts.Seed, u, v, r, len(large), uLarge, all, logq, hit)
			seededArcHits(opts.Seed, v, u, r, len(large), vLarge, all, logq, hit)
		}
	}
	for pi, add := range additions {
		if len(add) == 0 {
			continue
		}
		touched[pi] = true
		newH[pi] = mergeSortedUnique(newH[pi], add)
	}

	res := &RepairResult{
		S: &Shortcuts{P: p, H: newH, Params: params},
	}
	for pi, t := range touched {
		if t {
			res.Touched = append(res.Touched, pi)
		}
	}
	if len(res.Touched) == 0 {
		res.Wall = time.Since(start)
		return res, nil
	}

	// Step 3: random-delay verification of the touched parts only —
	// phases 5 and 6 of BuildDistributed restricted to the touched set.
	depthLimit := int32(math.Ceil(DepthFactor * params.KD * math.Log2(float64(n))))
	if depthLimit < 1 {
		depthLimit = 1
	}
	kdInt := int(math.Ceil(params.KD))
	if kdInt < 1 {
		kdInt = 1
	}
	runner := &sched.Runner{}
	forest := &sched.BFSForest{}

	tasks := make([]sched.BFSTask, len(res.Touched))
	sets := make([]*graph.Bitset, len(res.Touched))
	for ti, pi := range res.Touched {
		set := graph.NewBitset(g.NumEdges())
		for _, e := range newH[pi] {
			set.Set(e)
		}
		// Small touched parts have no shortcut edges; their augmented
		// subgraph is the induced one.
		part := p.Part(pi)
		ppi := int32(pi)
		for _, u := range part.Nodes {
			g.Arcs(u, func(_ int32, v graph.NodeID, e graph.EdgeID) bool {
				if p.PartOf(v) == ppi {
					set.Set(e)
				}
				return true
			})
		}
		sets[ti] = set
		s := set
		tasks[ti] = sched.BFSTask{
			Root:       part.Leader,
			Allowed:    func(_ int32, _, _ graph.NodeID, e graph.EdgeID) bool { return s.Has(e) },
			DepthLimit: depthLimit,
		}
	}
	schedOpts := sched.Options{
		MaxDelay: kdInt,
		Rng:      opts.Rng,
		Workers:  opts.Workers,
	}
	st, err := runner.ParallelBFSInto(forest, g, tasks, schedOpts)
	if err != nil {
		return nil, err
	}
	res.AddSched(st)

	// Part-local reached-bit exchange, computed directly (one simulated
	// round; only the touched parts' incident arcs carry messages).
	var exchanged int64
	aggTasks := make([]sched.AggTask, len(res.Touched))
	for ti, pi := range res.Touched {
		o := forest.Outcome(ti)
		part := p.Part(pi)
		ppi := int32(pi)
		exchanged += int64(len(part.Nodes))
		local := make([]sched.AggValue, o.Len())
		for j := range local {
			v := o.Node(j)
			w := 0.0
			if p.PartOf(v) == ppi {
				// Boundary witness: a reached part node adjacent to an
				// unreached node of the same part.
				g.Arcs(v, func(_ int32, u graph.NodeID, _ graph.EdgeID) bool {
					exchanged++
					if p.PartOf(u) == ppi && !o.Visited(u) {
						w = -1
						return false
					}
					return true
				})
			}
			local[j] = sched.AggValue{Weight: w, Valid: true}
		}
		aggTasks[ti] = sched.AggTask{Root: part.Leader, Tree: o, Local: local}
	}
	res.AddSim(1, exchanged)

	verdicts, st2, err := runner.ParallelMinAggregate(g, aggTasks, schedOpts)
	if err != nil {
		return nil, err
	}
	res.AddSched(st2)
	for ti, v := range verdicts {
		if v.Weight < 0 {
			return nil, reproerr.Errorf(op, reproerr.KindInvalidInput,
				"part %d: %w", res.Touched[ti], ErrRepairVerify)
		}
		// A tree that never left its root while the part has more nodes is
		// equally non-spanning (the boundary witness above catches it, but
		// be explicit for the degenerate no-edges case).
		o := forest.Outcome(ti)
		reached := 0
		ppi := int32(res.Touched[ti])
		for j := 0; j < o.Len(); j++ {
			if p.PartOf(o.Node(j)) == ppi {
				reached++
			}
		}
		if reached != len(p.Part(res.Touched[ti]).Nodes) {
			return nil, reproerr.Errorf(op, reproerr.KindInvalidInput,
				"part %d: %w", res.Touched[ti], ErrRepairVerify)
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}

// mergeSortedUnique merges an ascending base list with an unsorted batch of
// additions into one ascending duplicate-free list.
func mergeSortedUnique(base, add []graph.EdgeID) []graph.EdgeID {
	sort.Slice(add, func(i, j int) bool { return add[i] < add[j] })
	out := make([]graph.EdgeID, 0, len(base)+len(add))
	i, j := 0, 0
	for i < len(base) || j < len(add) {
		// Skip duplicate additions (an edge can be drawn by several
		// repetitions and by Step 1 at once).
		for j+1 < len(add) && add[j+1] == add[j] {
			j++
		}
		switch {
		case j >= len(add):
			out = append(out, base[i])
			i++
		case i >= len(base):
			out = append(out, add[j])
			j++
		case base[i] < add[j]:
			out = append(out, base[i])
			i++
		case base[i] > add[j]:
			out = append(out, add[j])
			j++
		default: // equal: keep one
			out = append(out, base[i])
			i++
			j++
		}
	}
	return out
}
