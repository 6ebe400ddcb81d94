package sched

import (
	"fmt"
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

// BFSOutcome is one task's truncated BFS tree: a view into a BFSForest (or
// a standalone tree built with NewTree). The zero value is an empty tree.
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

// NewTree builds a standalone rooted tree in BFSOutcome form from explicit
// parent/children maps plus per-member local values — the hand-built-task
// path of ParallelMinAggregate (tests, external tree sources). Members are
// the keys of local; the returned values slice is aligned with the tree's
// node order. Tree edges are resolved to arcs with graph.ArcBetween; an
// edge absent from g, a parent or child outside the member set, or a
// missing/extra root parent entry is rejected.
func NewTree(
	g *graph.Graph,
	root graph.NodeID,
	parent map[graph.NodeID]graph.NodeID,
	children map[graph.NodeID][]graph.NodeID,
	local map[graph.NodeID]AggValue,
) (BFSOutcome, []AggValue, error) {
	zero := BFSOutcome{}
	if _, ok := local[root]; !ok {
		return zero, nil, fmt.Errorf("sched: tree root %d is not a member", root)
	}
	if p, ok := parent[root]; ok {
		return zero, nil, fmt.Errorf("sched: tree root %d has a parent (%d)", root, p)
	}
	members := make([]graph.NodeID, 0, len(local))
	for v := range local {
		members = append(members, v)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	n := len(members)
	f := &BFSForest{
		g:        g,
		taskOff:  []int32{0, int32(n)},
		nodes:    members,
		dist:     make([]int32, n),
		parc:     make([]int32, n),
		childOff: make([]int32, n+1),
	}
	vals := make([]AggValue, n)
	for i, v := range members {
		vals[i] = local[v]
		if v == root {
			f.parc[i] = -1
			continue
		}
		p, ok := parent[v]
		if !ok {
			return zero, nil, fmt.Errorf("sched: member %d has no parent and is not the root", v)
		}
		if _, ok := local[p]; !ok {
			return zero, nil, fmt.Errorf("sched: parent %d of %d is a non-member node", p, v)
		}
		a, ok := g.ArcBetween(p, v)
		if !ok {
			return zero, nil, fmt.Errorf("sched: no arc %d->%d (tree edge outside graph)", v, p)
		}
		f.parc[i] = a
	}
	for i, v := range members {
		f.childOff[i+1] = f.childOff[i]
		for _, c := range children[v] {
			if _, ok := local[c]; !ok {
				return zero, nil, fmt.Errorf("sched: child %d of %d is a non-member node", c, v)
			}
			a, ok := g.ArcBetween(v, c)
			if !ok {
				return zero, nil, fmt.Errorf("sched: no arc %d->%d (tree edge outside graph)", v, c)
			}
			f.childArc = append(f.childArc, a)
			f.childOff[i+1]++
		}
	}
	return f.Outcome(0), vals, nil
}
