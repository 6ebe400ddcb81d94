package sched

// This file is a faithful test-only copy of the seed scheduler that
// predates the flat rewrite: map-keyed BFS outcomes, per-arc [][]T queues
// that allocate on every push, a fresh pops slice every round, an O(deg)
// linear arcTo scan per tree edge, and map-form aggregation state. It is
// kept for two jobs:
//
//   - the old-vs-new benchmarks in sched_bench_test.go, so the perf
//     trajectory of the scheduler stays measurable against the seed;
//   - TestFlatSchedulerMatchesSeed, which pins the flat scheduler to the
//     seed's observable behavior: identical visited sets, distances,
//     parents, children orders, aggregation results, and Stats.

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

type seedBFSOutcome struct {
	Dist     map[graph.NodeID]int32
	Parent   map[graph.NodeID]graph.NodeID
	Children map[graph.NodeID][]graph.NodeID
}

type seedBFSToken struct {
	task int32
	kind uint8 // 0 = visit token carrying dist, 1 = child notification
	dist int32
}

type seedQueues[T any] struct {
	q      [][]T
	active []int32
	inList []bool
	load   []int
	maxQ   int
}

func newSeedQueues[T any](numArcs int) *seedQueues[T] {
	return &seedQueues[T]{
		q:      make([][]T, numArcs),
		inList: make([]bool, numArcs),
		load:   make([]int, numArcs),
	}
}

func (qs *seedQueues[T]) push(arc int32, t T) {
	qs.q[arc] = append(qs.q[arc], t)
	qs.load[arc]++
	if len(qs.q[arc]) > qs.maxQ {
		qs.maxQ = len(qs.q[arc])
	}
	if !qs.inList[arc] {
		qs.inList[arc] = true
		qs.active = append(qs.active, arc)
	}
}

func (qs *seedQueues[T]) drainOne(deliver func(arc int32, t T)) (delivered int) {
	arcs := qs.active
	qs.active = qs.active[len(qs.active):]
	for _, a := range arcs {
		qs.inList[a] = false
	}
	type pop struct {
		arc int32
		t   T
	}
	pops := make([]pop, 0, len(arcs))
	for _, a := range arcs {
		head := qs.q[a][0]
		qs.q[a] = qs.q[a][1:]
		pops = append(pops, pop{arc: a, t: head})
	}
	for _, a := range arcs {
		if len(qs.q[a]) > 0 && !qs.inList[a] {
			qs.inList[a] = true
			qs.active = append(qs.active, a)
		}
	}
	for _, p := range pops {
		deliver(p.arc, p.t)
	}
	return len(pops)
}

func (qs *seedQueues[T]) maxLoad() int {
	m := 0
	for _, l := range qs.load {
		if l > m {
			m = l
		}
	}
	return m
}

func seedParallelBFS(g *graph.Graph, tasks []BFSTask, opts Options) ([]*seedBFSOutcome, Stats, error) {
	if opts.MaxDelay > 0 && opts.Rng == nil {
		return nil, Stats{}, fmt.Errorf("sched: MaxDelay %d requires Rng", opts.MaxDelay)
	}
	outcomes := make([]*seedBFSOutcome, len(tasks))
	starts := make(map[int][]int32)
	lastStart := 0
	for i := range tasks {
		outcomes[i] = &seedBFSOutcome{
			Dist:     make(map[graph.NodeID]int32),
			Parent:   make(map[graph.NodeID]graph.NodeID),
			Children: make(map[graph.NodeID][]graph.NodeID),
		}
		delay := 0
		if opts.MaxDelay > 0 {
			delay = opts.Rng.Intn(opts.MaxDelay + 1)
		}
		starts[delay] = append(starts[delay], int32(i))
		if delay > lastStart {
			lastStart = delay
		}
	}

	qs := newSeedQueues[seedBFSToken](g.NumArcs())
	var stats Stats
	maxRounds := opts.maxRounds(64*(g.NumNodes()+len(tasks)) + lastStart + 64)

	expand := func(task int32, u graph.NodeID, dist int32) {
		t := &tasks[task]
		if t.DepthLimit >= 0 && dist >= t.DepthLimit {
			return
		}
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			e := g.ArcEdge(a)
			if t.Allowed != nil && !t.Allowed(a, u, v, e) {
				continue
			}
			qs.push(a, seedBFSToken{task: task, kind: 0, dist: dist})
		}
	}

	deliver := func(arc int32, tk seedBFSToken) {
		v := g.ArcTarget(arc)
		out := outcomes[tk.task]
		switch tk.kind {
		case 0:
			if _, seen := out.Dist[v]; seen {
				return
			}
			out.Dist[v] = tk.dist + 1
			out.Parent[v] = g.ArcTail(arc)
			qs.push(g.ArcReverse(arc), seedBFSToken{task: tk.task, kind: 1})
			expand(tk.task, v, tk.dist+1)
		case 1:
			out.Children[v] = append(out.Children[v], g.ArcTail(arc))
		}
	}

	round := 0
	for {
		if ts, ok := starts[round]; ok {
			for _, ti := range ts {
				t := &tasks[ti]
				if _, seen := outcomes[ti].Dist[t.Root]; !seen {
					outcomes[ti].Dist[t.Root] = 0
					expand(ti, t.Root, 0)
				}
			}
			delete(starts, round)
		}
		if len(qs.active) == 0 && len(starts) == 0 {
			break
		}
		if round >= maxRounds {
			return outcomes, stats, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		stats.Messages += int64(qs.drainOne(deliver))
		round++
	}
	stats.Rounds = round
	stats.MaxArcLoad = qs.maxLoad()
	stats.MaxQueue = qs.maxQ
	return outcomes, stats, nil
}

type seedAggTask struct {
	Root     graph.NodeID
	Parent   map[graph.NodeID]graph.NodeID
	Children map[graph.NodeID][]graph.NodeID
	Local    map[graph.NodeID]AggValue
}

type seedAggToken struct {
	task int32
	kind uint8 // 0 = up (convergecast), 1 = down (broadcast result)
	val  AggValue
}

func seedParallelMinAggregate(g *graph.Graph, tasks []seedAggTask, opts Options) ([]AggValue, Stats, error) {
	if opts.MaxDelay > 0 && opts.Rng == nil {
		return nil, Stats{}, fmt.Errorf("sched: MaxDelay %d requires Rng", opts.MaxDelay)
	}
	type nodeState struct {
		waiting int
		acc     AggValue
	}
	states := make([]map[graph.NodeID]*nodeState, len(tasks))
	results := make([]AggValue, len(tasks))

	qs := newSeedQueues[seedAggToken](g.NumArcs())
	var stats Stats

	arcTo := func(u, v graph.NodeID) (int32, error) {
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			if g.ArcTarget(a) == v {
				return a, nil
			}
		}
		return 0, fmt.Errorf("sched: no arc %d->%d (tree edge outside graph)", u, v)
	}

	var firstErr error
	sendUp := func(ti int32, u graph.NodeID) {
		t := &tasks[ti]
		st := states[ti][u]
		if p, ok := t.Parent[u]; ok {
			a, err := arcTo(u, p)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			qs.push(a, seedAggToken{task: ti, kind: 0, val: st.acc})
			return
		}
		results[ti] = st.acc
		for _, c := range t.Children[u] {
			a, err := arcTo(u, c)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			qs.push(a, seedAggToken{task: ti, kind: 1, val: st.acc})
		}
	}

	starts := make(map[int][]int32)
	lastStart := 0
	for i := range tasks {
		delay := 0
		if opts.MaxDelay > 0 {
			delay = opts.Rng.Intn(opts.MaxDelay + 1)
		}
		starts[delay] = append(starts[delay], int32(i))
		if delay > lastStart {
			lastStart = delay
		}
	}

	startTask := func(ti int32) {
		t := &tasks[ti]
		states[ti] = make(map[graph.NodeID]*nodeState, len(t.Local))
		members := make([]graph.NodeID, 0, len(t.Local))
		for u := range t.Local {
			members = append(members, u)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for _, u := range members {
			states[ti][u] = &nodeState{waiting: len(t.Children[u]), acc: t.Local[u]}
		}
		for _, u := range members {
			if states[ti][u].waiting == 0 {
				sendUp(ti, u)
			}
		}
	}

	deliver := func(arc int32, tk seedAggToken) {
		v := g.ArcTarget(arc)
		st := states[tk.task][v]
		if st == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("sched: task %d token reached non-member node %d", tk.task, v)
			}
			return
		}
		switch tk.kind {
		case 0:
			if tk.val.Better(st.acc) {
				st.acc = tk.val
			}
			st.waiting--
			if st.waiting == 0 {
				sendUp(tk.task, v)
			}
		case 1:
			st.acc = tk.val
			t := &tasks[tk.task]
			for _, c := range t.Children[v] {
				a, err := arcTo(v, c)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				qs.push(a, seedAggToken{task: tk.task, kind: 1, val: tk.val})
			}
		}
	}

	maxRounds := opts.maxRounds(64*(g.NumNodes()+len(tasks)) + lastStart + 64)
	round := 0
	for {
		if ts, ok := starts[round]; ok {
			for _, ti := range ts {
				startTask(ti)
			}
			delete(starts, round)
		}
		if firstErr != nil {
			return results, stats, firstErr
		}
		if len(qs.active) == 0 && len(starts) == 0 {
			break
		}
		if round >= maxRounds {
			return results, stats, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		stats.Messages += int64(qs.drainOne(deliver))
		round++
	}
	stats.Rounds = round
	stats.MaxArcLoad = qs.maxLoad()
	stats.MaxQueue = qs.maxQ
	return results, stats, nil
}
