// Package sched implements the random-delay scheduling of multiple
// distributed algorithms over a shared network, following Leighton–Maggs–Rao
// [LMR99] as packaged by Ghaffari [Gha15, Theorem 1.3] and used by the paper
// as Theorem 2.1: if N sub-algorithms each have dilation ≤ d and the total
// number of messages that need to cross any edge is ≤ c, then all N can be
// run together in O(c + d·log n) rounds by delaying each algorithm's start by
// a random amount and letting edges forward one message per round.
//
// The simulation is token-based and CONGEST-honest: every directed edge
// carries at most one token per round, tokens carry O(log n) bits, and the
// reported Rounds/Messages are exact counts for the realized schedule. The
// two instances the repository needs are provided: ParallelBFS (used by the
// shortcut construction to grow truncated BFS trees in all augmented
// subgraphs G[Si]∪Hi at once) and ParallelMinAggregate (used by the MST
// algorithm to convergecast minimum-weight outgoing edges over fragment
// trees and broadcast the winners back).
//
// Like the CONGEST engine, the scheduler runs on flat arc-indexed state: an
// epoch-tagged queue descriptor per directed arc (inline front token plus an
// arena-backed ring for backlog), an ordered worklist of active arcs, and
// dense per-task visited/dist/parent arrays (with an epoch-tagged hash
// fallback for huge task counts) — no maps, no steady-state allocation in
// the round loop. A Runner can be reused across executions to amortize
// every buffer (see drain.go for the determinism argument).
package sched

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// ErrMaxRounds is returned when a schedule fails to drain within the round
// budget.
var ErrMaxRounds = errors.New("sched: exceeded max rounds")

// Stats aggregates the cost of one scheduled execution.
type Stats struct {
	Rounds   int
	Messages int64
	// MaxArcLoad is the largest number of tokens that crossed any single
	// directed edge over the whole execution — the realized congestion c.
	MaxArcLoad int
	// MaxQueue is the largest backlog observed on any directed edge.
	MaxQueue int
}

// Options configures a scheduled execution.
type Options struct {
	// MaxDelay is the window (in rounds) for the uniform random start delay
	// of each task; 0 disables delays (the ablation A2 baseline).
	MaxDelay int
	// MaxRounds bounds the execution; <= 0 selects a generous default.
	MaxRounds int
	// Rng supplies the shared randomness for start delays. Must be non-nil
	// when MaxDelay > 0.
	Rng *rand.Rand
	// Ctx, when non-nil, is checked once per drain round: a canceled or
	// expired context aborts the execution within one round with a
	// reproerr.KindCanceled/KindDeadline error wrapping ctx.Err(). The
	// check polls a prefetched Done channel — no allocation, no measurable
	// cost on the round loop (nil Ctx skips it entirely).
	Ctx context.Context
}

// done returns the context's Done channel, or nil when no cancellable
// context was supplied.
func (o Options) done() <-chan struct{} {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Done()
}

func (o Options) maxRounds(def int) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return def
}

// BFSTask describes one truncated BFS to grow: from Root, over the arcs
// admitted by Allowed, to depth at most DepthLimit (< 0 for unbounded).
type BFSTask struct {
	Root       graph.NodeID
	Allowed    graph.ArcFilter
	DepthLimit int32
}

// Runner owns the reusable flat state of scheduled executions: arc queues,
// chunk arenas, worklists, visit arenas, and the epoch-tagged visit set.
// The zero value is ready to use. Reusing one Runner across executions (as
// the shortcut construction does across diameter guesses and the MST across
// Borůvka phases) makes the round loop allocation-free in steady state.
// A Runner must not be used concurrently.
type Runner struct {
	bfs      drainer[bfsToken]
	agg      drainer[aggToken]
	bfsState bfsState
	starts   startPlan
	bfsRun   bfsRun
	aggRun   aggRun
	sorter   forestSorter

	// dense per-(task, node) BFS state (see bfs.go)
	denseBits   []uint64    // visited bitset, task-row word stride
	dense       []denseCell // dist/parc, indexed task·n+node
	denseVis    []int32     // extraction-time forest slots, indexed task·n+node
	slotScratch []int32

	// aggregate per-member state, indexed stateOff[task]+memberIndex
	stateOff []int32
	waiting  []int32
	acc      []AggValue
}

// ParallelBFS grows all tasks' truncated BFS trees concurrently under
// random-delay scheduling and returns per-task outcomes plus exact cost
// accounting. The package-level function allocates a fresh Runner; loops
// should hold one Runner and call its methods instead.
func ParallelBFS(g *graph.Graph, tasks []BFSTask, opts Options) (*BFSForest, Stats, error) {
	var r Runner
	return r.ParallelBFS(g, tasks, opts)
}

// ParallelMinAggregate runs all tasks' min-convergecasts and result
// broadcasts concurrently under the shared one-token-per-arc-per-round
// constraint, returning the per-task global minimum (as known at the root
// and broadcast to every participant).
func ParallelMinAggregate(g *graph.Graph, tasks []AggTask, opts Options) ([]AggValue, Stats, error) {
	var r Runner
	return r.ParallelMinAggregate(g, tasks, opts)
}

// ParallelBFS is the Runner-reusing form of the package-level ParallelBFS.
func (r *Runner) ParallelBFS(g *graph.Graph, tasks []BFSTask, opts Options) (*BFSForest, Stats, error) {
	f := &BFSForest{}
	stats, err := r.ParallelBFSInto(f, g, tasks, opts)
	return f, stats, err
}

// ParallelMinAggregate is the Runner-reusing form of the package-level
// ParallelMinAggregate.
func (r *Runner) ParallelMinAggregate(g *graph.Graph, tasks []AggTask, opts Options) ([]AggValue, Stats, error) {
	return r.ParallelMinAggregateInto(nil, g, tasks, opts)
}

// startPlan schedules task starts: delays drawn task-by-task (the same Rng
// consumption order as ever), bucketed into a counting-sorted order so the
// round loop replays them with two cursor reads and no map.
type startPlan struct {
	delay []int32 // per task
	order []int32 // task indices sorted by (delay, index)
	count []int32 // scratch for the counting sort
	next  int     // cursor into order
	last  int     // largest delay drawn
}

func (sp *startPlan) plan(numTasks int, opts Options) error {
	if opts.MaxDelay > 0 && opts.Rng == nil {
		return reproerr.Invalid("sched", "MaxDelay %d requires Rng", opts.MaxDelay)
	}
	maxDelay := opts.MaxDelay
	if maxDelay < 0 {
		maxDelay = 0 // any non-positive window means no delays, as ever
	}
	sp.delay = resize(sp.delay, numTasks)
	sp.order = resize(sp.order, numTasks)
	sp.count = resize(sp.count, maxDelay+2)
	for i := range sp.count {
		sp.count[i] = 0
	}
	sp.last = 0
	for i := 0; i < numTasks; i++ {
		d := 0
		if opts.MaxDelay > 0 {
			d = opts.Rng.Intn(opts.MaxDelay + 1)
		}
		sp.delay[i] = int32(d)
		sp.count[d]++
		if d > sp.last {
			sp.last = d
		}
	}
	var sum int32
	for d := range sp.count {
		c := sp.count[d]
		sp.count[d] = sum
		sum += c
	}
	for i := 0; i < numTasks; i++ {
		d := sp.delay[i]
		sp.order[sp.count[d]] = int32(i)
		sp.count[d]++
	}
	sp.next = 0
	return nil
}

// pending reports whether starts remain; drainer.drive replays due starts
// directly off order/delay.
func (sp *startPlan) pending() bool { return sp.next < len(sp.order) }

// resize returns s with length n, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
