package shortcut

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/congest"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/sched"
)

// DistOptions configures the distributed construction.
type DistOptions struct {
	// Rng drives sampling and the scheduler's random delays. Required.
	Rng *rand.Rand
	// LogFactor and Reps as in Options (0 = paper defaults).
	LogFactor float64
	Reps      int
	// KnownDiameter skips the diameter-guessing loop when > 0 (the paper's
	// "assuming the knowledge of D" variant).
	KnownDiameter int
	// MaxRounds bounds each simulated phase (0 = generous default).
	MaxRounds int
	// Ctx, when non-nil, cancels the construction cooperatively: it is
	// checked at every simulated round barrier (CONGEST engine) and every
	// scheduler drain step, so the run aborts within one round of
	// cancellation with a reproerr.KindCanceled/KindDeadline error.
	Ctx context.Context
}

// DepthFactor scales the truncation depth of every scheduled BFS over
// augmented subgraphs: depth = DepthFactor·kD·log2(n). The construction's
// phase 5, the repair's verification and the MST's MWOE phases each keep
// their own formula around it.
const DepthFactor = 2

// DistResult is the outcome of the distributed construction with exact
// simulated cost accounting.
type DistResult struct {
	S *Shortcuts
	// Cost is the unified v2 accounting: Rounds and Messages aggregate
	// every simulated phase across every diameter guess (leader election,
	// global BFS, per-guess part BFS, verification exchanges, enumeration,
	// broadcast, and the scheduled parallel BFS); SchedStats is the
	// scheduler accounting of the successful guess's parallel-BFS phase
	// (realized congestion/queueing); Wall is the construction's real
	// duration. Field promotion keeps the v1 accessors (res.Rounds,
	// res.Messages, res.SchedStats) intact.
	cost.Cost
	// Guesses is the number of diameter guesses tried (1 when
	// KnownDiameter is set).
	Guesses int
	// Diameter is the guess that succeeded.
	Diameter int
	// EccApprox is the leader eccentricity found by phase 0 (ecc ≤ D ≤ 2ecc).
	EccApprox int32
}

// BuildDistributed runs the paper's distributed shortcut construction
// (Section 2, "Distributed implementation") on the CONGEST simulator:
//
//  0. Leader election by max-ID flooding; the leader's eccentricity gives
//     the 2-approximation D' of the diameter.
//  1. A global BFS tree from the leader (used to number large parts and to
//     broadcast global counters).
//  2. For each guess D” (or the known D): truncated BFS of depth kD inside
//     every part detects large parts; a one-round reached-bit exchange plus
//     a convergecast lets each leader decide |Si| > kD.
//  3. Large leaders are numbered 1..N' via convergecast/prefix-broadcast on
//     the global tree, and N' is broadcast to everyone.
//  4. Every node locally samples its incident edges into the N' shortcut
//     subgraphs (Step 2 of the centralized construction; zero rounds). The
//     sampled congestion is checked against the enforcement cap.
//  5. Truncated BFS trees rooted at the leaders are grown in all augmented
//     subgraphs G[Si] ∪ Hi simultaneously under random-delay scheduling
//     (Theorem 2.1).
//  6. Verification: a reached-bit exchange plus a scheduled convergecast
//     over the new trees tells each leader whether its tree spans Si. If
//     every part is spanned the guess succeeds; otherwise the next guess is
//     tried.
//
// All knowledge used by the simulated nodes is either local, carried by
// simulated messages, or standard CONGEST input (IDs, n, part leader IDs).
func BuildDistributed(g *graph.Graph, p *Partition, opts DistOptions) (*DistResult, error) {
	const op = "shortcut.BuildDistributed"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	if err := requireOver(op, g, p); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, reproerr.Invalid(op, "empty graph")
	}
	maxR := opts.MaxRounds
	if maxR <= 0 {
		maxR = 64*n + 4096
	}
	start := time.Now()
	eng := congest.NewEngine(congest.Options{MaxRounds: maxR, Ctx: opts.Ctx})

	res := &DistResult{}

	// Phase 0: leader election + diameter approximation.
	mf, st, err := congest.RunMaxFlood(g, eng)
	if err != nil {
		return nil, fmt.Errorf("shortcut: leader election: %w", err)
	}
	res.addStats(st)
	ecc := mf.EccApprox()
	if ecc < 1 {
		ecc = 1
	}
	res.EccApprox = ecc

	// Phase 1: global BFS tree from the leader.
	globalTree, st, err := congest.RunBFS(g, mf.Leader, eng)
	if err != nil {
		return nil, fmt.Errorf("shortcut: global BFS: %w", err)
	}
	res.addStats(st)

	low, high := int(ecc), 2*int(ecc)
	if opts.KnownDiameter > 0 {
		low, high = opts.KnownDiameter, opts.KnownDiameter
	}
	leaderOf := p.LeaderOf()
	// Scheduler state reused across guesses (runner, extraction forest, and
	// verdicts buffer): allocation-free steady state.
	var schedState schedScratch
	for guess := low; guess <= high; guess++ {
		res.Guesses++
		sc, ok, err := tryGuess(g, p, leaderOf, globalTree, guess, &opts, eng, &schedState, res)
		if err != nil {
			return nil, fmt.Errorf("shortcut: guess D=%d: %w", guess, err)
		}
		if ok {
			res.S = sc
			res.Diameter = guess
			res.Wall = time.Since(start)
			return res, nil
		}
	}
	return nil, fmt.Errorf("shortcut: no diameter guess in [%d,%d] produced verified shortcuts", low, high)
}

// schedScratch is the scheduler state BuildDistributed reuses across
// diameter guesses: runner buffers, the extraction forest, and the
// verification verdicts slice.
type schedScratch struct {
	runner   sched.Runner
	forest   sched.BFSForest
	verdicts []sched.AggValue
}

// addStats and addSched charge one simulated phase; the successful guess's
// parallel-BFS stats are assigned to Cost.SchedStats separately, preserving
// the v1 field semantics exactly.
func (r *DistResult) addStats(st congest.Stats) { r.AddSim(st.Rounds, st.Messages) }

func (r *DistResult) addSched(st sched.Stats) { r.AddSim(st.Rounds, st.Messages) }

// congestionCapFactor scales tryGuess's enforcement threshold on sampled
// edge congestion: a guess whose sampling exceeds
// congestionCapFactor·Reps·kD·ln(n)·LogFactor (+16) fails immediately, as
// in the paper's verification step.
const congestionCapFactor = 6

func tryGuess(
	g *graph.Graph,
	p *Partition,
	leaderOf []graph.NodeID,
	globalTree *congest.Tree,
	dGuess int,
	opts *DistOptions,
	eng congest.Engine,
	ss *schedScratch,
	res *DistResult,
) (*Shortcuts, bool, error) {
	n := g.NumNodes()
	params := DeriveParams(n, dGuess, opts.Reps, opts.LogFactor)
	kdInt := int(math.Ceil(params.KD))

	// Phase 2: truncated intra-part BFS to classify parts.
	forest, st, err := congest.RunPartBFS(g, leaderOf, int32(kdInt), eng)
	if err != nil {
		return nil, false, fmt.Errorf("part BFS: %w", err)
	}
	res.addStats(st)

	reached := make([]bool, n)
	for v := 0; v < n; v++ {
		reached[v] = forest.Dist[v] != graph.Unreached
	}
	flags, st, err := congest.RunReachExchange(g, leaderOf, reached, eng)
	if err != nil {
		return nil, false, fmt.Errorf("reach exchange: %w", err)
	}
	res.addStats(st)

	// Convergecast (count, boundary-flag) packed into one value.
	const flagShift = 40
	values := make([]int64, n)
	for v := 0; v < n; v++ {
		if !reached[v] {
			continue
		}
		values[v] = 1
		if flags[v] {
			values[v] |= 1 << flagShift
		}
	}
	totals, st, err := congest.RunForestSum(g, forest, values, eng)
	if err != nil {
		return nil, false, fmt.Errorf("part size convergecast: %w", err)
	}
	res.addStats(st)

	marked := make([]bool, n)
	var large []int
	for i := 0; i < p.NumParts(); i++ {
		leader := p.Part(i).Leader
		count := totals[leader] & ((1 << flagShift) - 1)
		truncated := totals[leader]>>flagShift > 0
		if truncated || count > int64(kdInt) {
			large = append(large, i)
			marked[leader] = true
		}
	}

	// Phase 3: number the large parts and broadcast their count.
	enum, st, err := congest.RunEnumerate(g, globalTree, marked, eng)
	if err != nil {
		return nil, false, fmt.Errorf("enumerate: %w", err)
	}
	res.addStats(st)
	if enum.Total != int64(len(large)) {
		return nil, false, fmt.Errorf("enumerate counted %d large parts, expected %d", enum.Total, len(large))
	}
	_, st, err = congest.RunTreeBroadcast(g, globalTree, enum.Total, eng)
	if err != nil {
		return nil, false, fmt.Errorf("broadcast N: %w", err)
	}
	res.addStats(st)

	// Phase 4: local sampling (zero communication). Every node samples its
	// incident directed edges into the N' subgraphs.
	masks := newPartMasks(g.NumEdges(), len(large))
	largeIdxOf := largeIndex(p, large)
	masks.stepOne(g, p, largeIdxOf)
	sampleHits(g, p, largeIdxOf, len(large), params.P, params.Reps, opts.Rng, masks.set)

	// Congestion enforcement (the paper's cap before scheduling).
	lf := params.LogFactor
	capC := int(math.Ceil(congestionCapFactor*float64(params.Reps)*params.KD*math.Log(float64(n))*lf)) + 16
	if masks.maxCount() > capC {
		return nil, false, nil // guess fails: congestion exceeded
	}

	// Phase 5: scheduled parallel truncated BFS in all augmented subgraphs.
	depthLimit := int32(math.Ceil(DepthFactor * params.KD * math.Log2(float64(n))))
	tasks := make([]sched.BFSTask, len(large))
	for li, pi := range large {
		li := int32(li)
		tasks[li] = sched.BFSTask{
			Root: p.Part(pi).Leader,
			Allowed: func(_ int32, _, _ graph.NodeID, e graph.EdgeID) bool {
				return masks.has(li, e)
			},
			DepthLimit: depthLimit,
		}
	}
	schedMax := opts.MaxRounds
	if schedMax <= 0 {
		schedMax = 0 // let sched pick its default
	}
	sst, err := ss.runner.ParallelBFSInto(&ss.forest, g, tasks, sched.Options{
		MaxDelay:  kdInt,
		Rng:       opts.Rng,
		MaxRounds: schedMax,
		Ctx:       opts.Ctx,
	})
	if err != nil {
		return nil, false, fmt.Errorf("scheduled BFS: %w", err)
	}
	out := &ss.forest
	res.addSched(sst)
	res.SchedStats = sst

	// Phase 6: verification. Each Si node learns whether it borders an
	// unreached Si node of its own tree (one round), then each leader
	// convergecasts the flag over its new tree.
	reached2 := make([]bool, n)
	for v := range reached2 {
		reached2[v] = true // nodes of small parts / no part count as covered
	}
	for li, pi := range large {
		o := out.Outcome(li)
		for _, v := range p.Part(pi).Nodes {
			reached2[v] = o.Visited(v)
		}
	}
	flags2, st, err := congest.RunReachExchange(g, leaderOf, reached2, eng)
	if err != nil {
		return nil, false, fmt.Errorf("verification exchange: %w", err)
	}
	res.addStats(st)

	aggTasks := make([]sched.AggTask, len(large))
	for li, pi := range large {
		o := out.Outcome(li)
		local := make([]sched.AggValue, o.Len())
		for j := range local {
			w := 0.0
			if v := o.Node(j); p.PartOf(v) == int32(pi) && flags2[v] {
				w = -1
			}
			local[j] = sched.AggValue{Weight: w, Valid: true}
		}
		aggTasks[li] = sched.AggTask{
			Root:  p.Part(pi).Leader,
			Tree:  o,
			Local: local,
		}
	}
	verdicts, sst2, err := ss.runner.ParallelMinAggregateInto(ss.verdicts, g, aggTasks, sched.Options{
		MaxDelay:  kdInt,
		Rng:       opts.Rng,
		MaxRounds: schedMax,
		Ctx:       opts.Ctx,
	})
	if err != nil {
		return nil, false, fmt.Errorf("verification convergecast: %w", err)
	}
	ss.verdicts = verdicts
	res.addSched(sst2)
	for _, v := range verdicts {
		if v.Weight < 0 {
			return nil, false, nil // some part's tree is not spanning: guess fails
		}
	}
	// Also require that every leader actually reached its whole part (the
	// flag test covers interior gaps; an entirely-unreached part has no
	// boundary witness only if the leader itself failed, which cannot happen
	// since the leader is the BFS root).
	return masks.collect(p, params, large), true, nil
}
