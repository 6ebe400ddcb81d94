package sched

import (
	"fmt"

	"repro/internal/graph"
)

// AggValue is the payload aggregated by ParallelMinAggregate: a comparable
// (Weight, Edge) pair representing a candidate minimum-weight outgoing edge.
// Ties break toward the smaller EdgeID, making aggregation deterministic.
// Encoded as two machine words it respects the O(log n)-bit message budget
// (weights are transmitted as fixed-precision values in real deployments).
type AggValue struct {
	Weight float64
	Edge   graph.EdgeID
	Valid  bool
}

// Better reports whether a beats b under (weight, edge) lexicographic order.
// An invalid value loses to any valid one.
func (a AggValue) Better(b AggValue) bool {
	if !a.Valid {
		return false
	}
	if !b.Valid {
		return true
	}
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.Edge < b.Edge
}

// AggTask is one convergecast-plus-broadcast over a rooted tree embedded in
// the shared network. Tree is a prior ParallelBFS outcome, whose parent and
// children arcs are exactly the convergecast and broadcast directions.
type AggTask struct {
	// Root is informational; the tree's root is the node with no parent arc.
	Root graph.NodeID
	Tree BFSOutcome
	// Local[i] is the initial candidate value of Tree.Node(i).
	Local []AggValue
}

// aggToken is the scheduler's aggregation message.
type aggToken struct {
	task int32
	kind uint8 // 0 = up (convergecast), 1 = down (broadcast result)
	val  AggValue
}

// aggRun is the drain handler of one ParallelMinAggregate execution.
// Per-member state lives in the Runner's flat waiting/acc arrays at
// stateOff[task]+memberIndex.
type aggRun struct {
	r     *Runner
	g     *graph.Graph
	tasks []AggTask
	out   []AggValue
}

// start initializes a task's members (in ascending node order, like the
// seed) and fires its leaves — time-based synchronization: after the BFS
// phase every node knows the phase deadline and hence whether it has
// children.
func (h *aggRun) start(ti int32) {
	r := h.r
	t := &h.tasks[ti]
	off := r.stateOff[ti]
	n := t.Tree.Len()
	for i := 0; i < n; i++ {
		r.waiting[off+int32(i)] = int32(len(t.Tree.ChildArcsAt(i)))
		r.acc[off+int32(i)] = t.Local[i]
	}
	for i := 0; i < n; i++ {
		if r.waiting[off+int32(i)] == 0 {
			h.sendUp(ti, i)
		}
	}
}

// sendUp forwards a node's accumulated value to its parent, or — at the
// root — publishes the task result and starts the downward broadcast.
func (h *aggRun) sendUp(ti int32, i int) {
	r := h.r
	t := &h.tasks[ti]
	val := r.acc[r.stateOff[ti]+int32(i)]
	if pa := t.Tree.ParentArcAt(i); pa >= 0 {
		r.agg.send(h.g.ArcReverse(pa), aggToken{task: ti, kind: 0, val: val})
		return
	}
	h.out[ti] = val
	for _, ca := range t.Tree.ChildArcsAt(i) {
		r.agg.send(ca, aggToken{task: ti, kind: 1, val: val})
	}
}

func (h *aggRun) deliver(arc int32, tk aggToken) {
	r := h.r
	t := &h.tasks[tk.task]
	i, ok := t.Tree.Index(h.g.ArcTarget(arc))
	if !ok {
		return // unreachable for validated tasks: tokens ride tree arcs only
	}
	gi := r.stateOff[tk.task] + int32(i)
	switch tk.kind {
	case 0:
		if tk.val.Better(r.acc[gi]) {
			r.acc[gi] = tk.val
		}
		r.waiting[gi]--
		if r.waiting[gi] == 0 {
			h.sendUp(tk.task, i)
		}
	case 1:
		r.acc[gi] = tk.val
		for _, ca := range t.Tree.ChildArcsAt(i) {
			r.agg.send(ca, aggToken{task: tk.task, kind: 1, val: tk.val})
		}
	}
}

// ParallelMinAggregateInto runs ParallelMinAggregate writing results into
// dst (grown if needed), reusing the Runner's buffers; with a reused Runner
// and dst the execution is allocation-free in steady state.
func (r *Runner) ParallelMinAggregateInto(dst []AggValue, g *graph.Graph, tasks []AggTask, opts Options) ([]AggValue, Stats, error) {
	if err := r.starts.plan(len(tasks), opts); err != nil {
		return nil, Stats{}, err
	}
	r.stateOff = resize(r.stateOff, len(tasks)+1)
	r.stateOff[0] = 0
	for i := range tasks {
		t := &tasks[i]
		if len(t.Local) != t.Tree.Len() {
			return nil, Stats{}, fmt.Errorf("sched: task %d: %d Local values for %d tree nodes", i, len(t.Local), t.Tree.Len())
		}
		if t.Tree.Len() > 0 && t.Tree.Graph() != g {
			return nil, Stats{}, fmt.Errorf("sched: task %d: tree belongs to a different graph", i)
		}
		r.stateOff[i+1] = r.stateOff[i] + int32(t.Tree.Len())
	}
	total := int(r.stateOff[len(tasks)])
	r.waiting = resize(r.waiting, total)
	r.acc = resize(r.acc, total)
	dst = resize(dst, len(tasks))
	for i := range dst {
		dst[i] = AggValue{}
	}

	d := &r.agg
	d.prepare(g)
	r.aggRun = aggRun{r: r, g: g, tasks: tasks, out: dst}
	d.h = &r.aggRun

	maxRounds := opts.maxRounds(64*(g.NumNodes()+len(tasks)) + r.starts.last + 64)
	stats, err := d.drive(&r.starts, maxRounds, opts)
	return dst, stats, err
}
