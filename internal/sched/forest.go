package sched

import (
	"sort"

	"repro/internal/graph"
)

// BFSForest is the dense result of one ParallelBFS execution: every task's
// visited set, distances, parent arcs, and tree-children arcs, laid out in
// CSR form. Per-task views are handed out as BFSOutcome values; a forest
// passed to Runner.ParallelBFSInto is overwritten with buffer reuse.
//
// Within each task, visits are sorted by node ID (so membership and
// distance lookups are binary searches), and each node's children appear in
// the arrival order of their notification tokens — the same order the seed
// scheduler materialized.
type BFSForest struct {
	g       *graph.Graph
	taskOff []int32 // len numTasks+1; task t's visits are [taskOff[t], taskOff[t+1])
	nodes   []graph.NodeID
	dist    []int32
	parc    []int32 // arc the visit token arrived on (parent→node); -1 at roots

	childOff []int32 // len len(nodes)+1; visit i's children arcs
	childArc []int32 // arc node→child
}

// NumTasks returns the number of tasks the forest holds outcomes for.
func (f *BFSForest) NumTasks() int {
	if len(f.taskOff) == 0 {
		return 0
	}
	return len(f.taskOff) - 1
}

// Outcome returns task t's view of the forest.
func (f *BFSForest) Outcome(t int) BFSOutcome {
	return BFSOutcome{f: f, lo: f.taskOff[t], hi: f.taskOff[t+1]}
}

// Graph returns the graph the forest was computed over.
func (f *BFSForest) Graph() *graph.Graph { return f.g }

// BFSOutcome is one task's truncated BFS tree: a view into a BFSForest. The
// zero value is an empty tree.
//
// Indexed accessors (…At) address the task's visits in ascending node-ID
// order; keyed accessors binary-search that order.
type BFSOutcome struct {
	f      *BFSForest
	lo, hi int32
}

// Len returns the number of visited nodes.
func (o BFSOutcome) Len() int { return int(o.hi - o.lo) }

// Node returns the i-th visited node.
func (o BFSOutcome) Node(i int) graph.NodeID { return o.f.nodes[o.lo+int32(i)] }

// DistAt returns the BFS distance of the i-th visited node.
func (o BFSOutcome) DistAt(i int) int32 { return o.f.dist[o.lo+int32(i)] }

// ParentArcAt returns the arc (parent→node) the i-th node was discovered
// over, or -1 for the task root. Its ArcReverse is the node's convergecast
// arc toward the root.
func (o BFSOutcome) ParentArcAt(i int) int32 { return o.f.parc[o.lo+int32(i)] }

// ParentAt returns the tree parent of the i-th node, or -1 for the root.
func (o BFSOutcome) ParentAt(i int) graph.NodeID {
	a := o.f.parc[o.lo+int32(i)]
	if a < 0 {
		return -1
	}
	return o.f.g.ArcTail(a)
}

// ChildArcsAt returns the arcs (node→child) to the i-th node's tree
// children, in child-notification arrival order, as a shared read-only
// slice.
func (o BFSOutcome) ChildArcsAt(i int) []int32 {
	j := o.lo + int32(i)
	return o.f.childArc[o.f.childOff[j]:o.f.childOff[j+1]]
}

// Index returns the position of v among the task's visits and whether v was
// visited.
func (o BFSOutcome) Index(v graph.NodeID) (int, bool) {
	lo, hi := int(o.lo), int(o.hi)
	i := sort.Search(hi-lo, func(i int) bool { return o.f.nodes[lo+i] >= v })
	if lo+i < hi && o.f.nodes[lo+i] == v {
		return i, true
	}
	return 0, false
}

// Visited reports whether the task's BFS reached v.
func (o BFSOutcome) Visited(v graph.NodeID) bool {
	_, ok := o.Index(v)
	return ok
}

// Dist returns v's BFS distance and whether v was visited.
func (o BFSOutcome) Dist(v graph.NodeID) (int32, bool) {
	i, ok := o.Index(v)
	if !ok {
		return 0, false
	}
	return o.DistAt(i), true
}

// Parent returns v's tree parent; ok is false when v is unvisited or the
// root (which has no parent), mirroring the seed scheduler's parent map.
func (o BFSOutcome) Parent(v graph.NodeID) (graph.NodeID, bool) {
	i, ok := o.Index(v)
	if !ok {
		return 0, false
	}
	p := o.ParentAt(i)
	return p, p >= 0
}

// Graph returns the graph the outcome's arcs index into (nil for the zero
// value).
func (o BFSOutcome) Graph() *graph.Graph {
	if o.f == nil {
		return nil
	}
	return o.f.g
}
