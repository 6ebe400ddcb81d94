package congest

// This file is a faithful test-only copy of the seed engine that predates
// the flat-buffer rewrite: per-node staging into a pending list, a global
// sort.Slice over all in-flight messages every round, an O(Σ deg²)
// reverse-arc build, a map-guarded outbox, and one goroutine per node. It is
// kept for two jobs:
//
//   - the old-vs-new delivery-path benchmarks in engine_bench_test.go, so
//     the perf trajectory of the engine stays measurable against the seed;
//   - TestFlatEngineMatchesSeedEngine, which pins the engine to the seed's
//     observable behavior (identical trees AND identical stats).

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

type seedDelivery struct {
	arc int32
	msg Message
}

type seedOutbox struct {
	ports []int
	msgs  []Message
	used  map[int]struct{}
	err   error
}

func (o *seedOutbox) send(p int, m Message) {
	if _, dup := o.used[p]; dup {
		o.err = fmt.Errorf("%w (port %d)", ErrBandwidth, p)
		return
	}
	o.used[p] = struct{}{}
	o.ports = append(o.ports, p)
	o.msgs = append(o.msgs, m)
}

func (o *seedOutbox) broadcast(v *View, m Message) {
	for p := 0; p < v.Degree(); p++ {
		o.send(p, m)
	}
}

func (o *seedOutbox) reset() {
	o.ports = o.ports[:0]
	o.msgs = o.msgs[:0]
	for k := range o.used {
		delete(o.used, k)
	}
}

// seedProgram mirrors Program against the staging outbox.
type seedProgram interface {
	Init(v *View, out *seedOutbox)
	Round(round int, v *View, in []Inbound, out *seedOutbox)
	Done() bool
}

type seedRunState struct {
	g        *graph.Graph
	views    []*View
	programs []seedProgram
	inboxes  [][]Inbound
	portOf   []int
	reverse  []int32
	stats    Stats
}

func newSeedRunState(g *graph.Graph, factory func(v *View) seedProgram) *seedRunState {
	n := g.NumNodes()
	st := &seedRunState{
		g:        g,
		views:    make([]*View, n),
		programs: make([]seedProgram, n),
		inboxes:  make([][]Inbound, n),
		portOf:   make([]int, g.NumArcs()),
		reverse:  make([]int32, g.NumArcs()),
	}
	for u := 0; u < n; u++ {
		lo, hi := g.ArcRange(graph.NodeID(u))
		for a := lo; a < hi; a++ {
			st.portOf[a] = int(a - lo)
		}
		st.views[u] = &View{g: g, id: graph.NodeID(u), lo: lo, n: int64(n)}
		st.programs[u] = factory(st.views[u])
	}
	// The seed's quadratic reverse-arc build, verbatim.
	for u := 0; u < n; u++ {
		lo, hi := g.ArcRange(graph.NodeID(u))
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			e := g.ArcEdge(a)
			vlo, vhi := g.ArcRange(v)
			for b := vlo; b < vhi; b++ {
				if g.ArcEdge(b) == e {
					st.reverse[a] = b
					break
				}
			}
		}
	}
	return st
}

func (st *seedRunState) stage(u graph.NodeID, out *seedOutbox, pending *[]seedDelivery) error {
	if out.err != nil {
		return out.err
	}
	lo, _ := st.g.ArcRange(u)
	for i, p := range out.ports {
		if p < 0 || p >= st.g.Degree(u) {
			return fmt.Errorf("congest: node %d sent on invalid port %d", u, p)
		}
		*pending = append(*pending, seedDelivery{arc: lo + int32(p), msg: out.msgs[i]})
	}
	st.stats.Messages += int64(len(out.ports))
	out.reset()
	return nil
}

func (st *seedRunState) deliver(pending []seedDelivery) {
	sort.Slice(pending, func(i, j int) bool {
		ri := st.g.ArcTarget(pending[i].arc)
		rj := st.g.ArcTarget(pending[j].arc)
		if ri != rj {
			return ri < rj
		}
		return pending[i].arc < pending[j].arc
	})
	for _, d := range pending {
		recv := st.g.ArcTarget(d.arc)
		back := st.reverse[d.arc]
		st.inboxes[recv] = append(st.inboxes[recv], Inbound{
			Port: st.portOf[back],
			From: seedTailOf(st.g, d.arc),
			Msg:  d.msg,
		})
	}
}

func seedTailOf(g *graph.Graph, arc int32) graph.NodeID {
	u, v := g.EdgeEndpoints(g.ArcEdge(arc))
	if g.ArcTarget(arc) == v {
		return u
	}
	return v
}

func (st *seedRunState) allDone() bool {
	for _, p := range st.programs {
		if !p.Done() {
			return false
		}
	}
	return true
}

func seedRunSequential(g *graph.Graph, factory func(v *View) seedProgram, maxRounds int) (Stats, []seedProgram, error) {
	st := newSeedRunState(g, factory)
	out := &seedOutbox{used: make(map[int]struct{})}
	var pending []seedDelivery
	for u := range st.programs {
		st.programs[u].Init(st.views[u], out)
		if err := st.stage(graph.NodeID(u), out, &pending); err != nil {
			return st.stats, st.programs, err
		}
	}
	for round := 1; ; round++ {
		if len(pending) == 0 && st.allDone() {
			st.stats.Rounds = round - 1
			return st.stats, st.programs, nil
		}
		if round > maxRounds {
			return st.stats, st.programs, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		st.deliver(pending)
		pending = pending[:0]
		for u := range st.programs {
			in := st.inboxes[u]
			if len(in) == 0 && st.programs[u].Done() {
				continue
			}
			st.programs[u].Round(round, st.views[u], in, out)
			st.inboxes[u] = st.inboxes[u][:0]
			if err := st.stage(graph.NodeID(u), out, &pending); err != nil {
				return st.stats, st.programs, err
			}
		}
	}
}

func seedRunGoroutines(g *graph.Graph, factory func(v *View) seedProgram, maxRounds int) (Stats, []seedProgram, error) {
	st := newSeedRunState(g, factory)
	n := g.NumNodes()

	type nodeResult struct {
		u   graph.NodeID
		out []seedDelivery
		err error
	}

	wake := make([]chan int, n)
	results := make(chan nodeResult, 1)
	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wake[u] = make(chan int, 1)
		wg.Add(1)
		go func(u graph.NodeID) {
			defer wg.Done()
			out := &seedOutbox{used: make(map[int]struct{})}
			lo, _ := g.ArcRange(u)
			for round := range wake[u] {
				if round == 0 {
					st.programs[u].Init(st.views[u], out)
				} else {
					st.programs[u].Round(round, st.views[u], st.inboxes[u], out)
				}
				res := nodeResult{u: u, err: out.err}
				for i, p := range out.ports {
					if p < 0 || p >= g.Degree(u) {
						res.err = fmt.Errorf("congest: node %d sent on invalid port %d", u, p)
						break
					}
					res.out = append(res.out, seedDelivery{arc: lo + int32(p), msg: out.msgs[i]})
				}
				out.reset()
				results <- res
			}
		}(graph.NodeID(u))
	}
	stopWorkers := func() {
		for _, c := range wake {
			close(c)
		}
		wg.Wait()
	}

	runRound := func(round int, active []graph.NodeID) ([]seedDelivery, error) {
		var pending []seedDelivery
		var firstErr error
		for _, u := range active {
			wake[u] <- round
		}
		for range active {
			res := <-results
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			st.stats.Messages += int64(len(res.out))
			pending = append(pending, res.out...)
		}
		return pending, firstErr
	}

	all := make([]graph.NodeID, n)
	for u := range all {
		all[u] = graph.NodeID(u)
	}
	pending, err := runRound(0, all)
	if err != nil {
		stopWorkers()
		return st.stats, st.programs, err
	}
	for round := 1; ; round++ {
		if len(pending) == 0 && st.allDone() {
			st.stats.Rounds = round - 1
			stopWorkers()
			return st.stats, st.programs, nil
		}
		if round > maxRounds {
			stopWorkers()
			return st.stats, st.programs, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		st.deliver(pending)
		active := all[:0:0]
		for u := 0; u < n; u++ {
			if len(st.inboxes[u]) > 0 || !st.programs[u].Done() {
				active = append(active, graph.NodeID(u))
			}
		}
		pending, err = runRound(round, active)
		for _, u := range active {
			st.inboxes[u] = st.inboxes[u][:0]
		}
		if err != nil {
			stopWorkers()
			return st.stats, st.programs, err
		}
	}
}

// seedBFSNode is the seed's bfsNode against the staging outbox.
type seedBFSNode struct {
	root     graph.NodeID
	dist     int32
	parent   int
	children []int
}

func (b *seedBFSNode) Init(v *View, out *seedOutbox) {
	b.dist = graph.Unreached
	b.parent = -1
	if v.ID() == b.root {
		b.dist = 0
		b.announce(v, out)
	}
}

func (b *seedBFSNode) announce(v *View, out *seedOutbox) {
	for p := 0; p < v.Degree(); p++ {
		if p == b.parent {
			continue
		}
		out.send(p, Message{Kind: kindBFS, A: int64(b.dist), B: -1})
	}
}

func (b *seedBFSNode) Round(_ int, v *View, in []Inbound, out *seedOutbox) {
	adopted := false
	for _, m := range in {
		switch m.Msg.Kind {
		case kindBFS:
			if b.dist != graph.Unreached {
				continue
			}
			b.dist = int32(m.Msg.A) + 1
			b.parent = m.Port
			adopted = true
		case kindParent:
			b.children = append(b.children, m.Port)
		}
	}
	if adopted {
		out.send(b.parent, Message{Kind: kindParent})
		b.announce(v, out)
	}
}

func (b *seedBFSNode) Done() bool { return true }

// seedRunBFS runs the seed BFS workload under a seed engine and returns the
// same Tree shape as RunBFS.
func seedRunBFS(g *graph.Graph, root graph.NodeID, goroutines bool, maxRounds int) (*Tree, Stats, error) {
	factory := func(v *View) seedProgram { return &seedBFSNode{root: root} }
	run := seedRunSequential
	if goroutines {
		run = seedRunGoroutines
	}
	stats, progs, err := run(g, factory, maxRounds)
	if err != nil {
		return nil, stats, err
	}
	t := &Tree{
		Root:       root,
		Dist:       make([]int32, g.NumNodes()),
		ParentPort: make([]int, g.NumNodes()),
		ChildPorts: make([][]int, g.NumNodes()),
	}
	for v, p := range progs {
		b := p.(*seedBFSNode)
		t.Dist[v] = b.dist
		t.ParentPort[v] = b.parent
		t.ChildPorts[v] = b.children
	}
	return t, stats, nil
}
