package congest

import (
	"fmt"

	"repro/internal/graph"
)

// Message kinds used by the built-in primitives.
const (
	kindBFS    uint8 = iota + 1 // A = sender's distance, B = tree/part tag
	kindParent                  // child → parent tree-edge notification
	kindMax                     // A = best ID seen, B = distance to it
	kindCount                   // A = subtree aggregate
	kindOffset                  // A = prefix offset for enumeration
)

// Tree is the per-node description of a rooted spanning structure produced
// by the BFS primitives and consumed by the aggregation primitives. All
// slices are indexed by NodeID; ports are local port indices.
type Tree struct {
	Root       graph.NodeID
	Dist       []int32 // -1 where the tree does not reach
	ParentPort []int   // -1 at the root and unreached nodes
	ChildPorts [][]int
}

// InTree reports whether node v was reached by the tree.
func (t *Tree) InTree(v graph.NodeID) bool { return t.Dist[v] != graph.Unreached }

// Depth returns the largest distance in the tree.
func (t *Tree) Depth() int32 {
	var d int32
	for _, x := range t.Dist {
		if x > d {
			d = x
		}
	}
	return d
}

// --- BFS -------------------------------------------------------------------

// bfsNode floods breadth-first from a designated root, optionally truncated
// at maxDepth, optionally restricted to a part (nodes sharing a leader tag).
type bfsNode struct {
	root     graph.NodeID
	tag      int64 // part tag carried in tokens; -1 for whole-graph BFS
	myTag    int64
	maxDepth int32 // -1 = unbounded

	dist       int32
	parentPort int
	childPorts []int
}

func (b *bfsNode) Init(v *View, out *Outbox) {
	b.dist = graph.Unreached
	b.parentPort = -1
	if v.ID() == b.root {
		b.dist = 0
		b.announce(v, out)
	}
}

func (b *bfsNode) announce(v *View, out *Outbox) {
	if b.maxDepth >= 0 && b.dist >= b.maxDepth {
		return
	}
	for p := 0; p < v.Degree(); p++ {
		if p == b.parentPort {
			continue
		}
		out.Send(p, Message{Kind: kindBFS, A: int64(b.dist), B: b.tag})
	}
}

func (b *bfsNode) Round(_ int, v *View, in []Inbound, out *Outbox) {
	adopted := false
	for _, m := range in {
		switch m.Msg.Kind {
		case kindBFS:
			if b.tag >= 0 && m.Msg.B != b.myTag {
				continue // token for another part
			}
			if b.dist != graph.Unreached {
				continue
			}
			b.dist = int32(m.Msg.A) + 1
			b.parentPort = m.Port
			adopted = true
		case kindParent:
			b.childPorts = append(b.childPorts, m.Port)
		}
	}
	if adopted {
		out.Send(b.parentPort, Message{Kind: kindParent})
		b.announce(v, out)
	}
}

func (b *bfsNode) Done() bool { return true } // purely message-driven

// RunBFS builds a BFS tree from root over the whole graph using the given
// runner. The returned stats cover this phase only.
func RunBFS(g *graph.Graph, root graph.NodeID, eng Engine) (*Tree, Stats, error) {
	factory := func(v *View) Program {
		return &bfsNode{root: root, tag: -1, maxDepth: -1}
	}
	stats, progs, err := eng.Run(g, factory)
	if err != nil {
		return nil, stats, err
	}
	return collectTree(g, root, progs), stats, nil
}

// Forest holds the outcome of BFS trees grown simultaneously in disjoint
// parts. Because parts are vertex-disjoint, each node has at most one tree,
// so the forest is stored as shared per-node arrays.
type Forest struct {
	Dist       []int32 // hop distance to the part leader; -1 if unreached
	ParentPort []int
	ChildPorts [][]int
}

// RunPartBFS builds truncated BFS trees in every part simultaneously: node v
// belongs to the part whose leader is leaderOf[v], trees are rooted at the
// leaders and truncated at maxDepth hops (maxDepth < 0 = unbounded). Parts
// are vertex-disjoint so the floods do not contend: this mirrors the paper's
// parallel intra-part BFS used to detect large components.
func RunPartBFS(g *graph.Graph, leaderOf []graph.NodeID, maxDepth int32, eng Engine) (*Forest, Stats, error) {
	if len(leaderOf) != g.NumNodes() {
		return nil, Stats{}, fmt.Errorf("congest: leaderOf has %d entries for %d nodes", len(leaderOf), g.NumNodes())
	}
	factory := func(v *View) Program {
		leader := leaderOf[v.ID()]
		return &bfsNode{root: leader, tag: int64(leader), myTag: int64(leader), maxDepth: maxDepth}
	}
	stats, progs, err := eng.Run(g, factory)
	if err != nil {
		return nil, stats, err
	}
	f := &Forest{
		Dist:       make([]int32, g.NumNodes()),
		ParentPort: make([]int, g.NumNodes()),
		ChildPorts: make([][]int, g.NumNodes()),
	}
	for v, p := range progs {
		b, ok := p.(*bfsNode)
		if !ok {
			return nil, stats, fmt.Errorf("congest: unexpected program type %T", p)
		}
		f.Dist[v] = b.dist
		f.ParentPort[v] = b.parentPort
		f.ChildPorts[v] = b.childPorts
	}
	return f, stats, nil
}

func collectTree(g *graph.Graph, root graph.NodeID, progs []Program) *Tree {
	t := &Tree{
		Root:       root,
		Dist:       make([]int32, g.NumNodes()),
		ParentPort: make([]int, g.NumNodes()),
		ChildPorts: make([][]int, g.NumNodes()),
	}
	for v, p := range progs {
		b := p.(*bfsNode)
		t.Dist[v] = b.dist
		t.ParentPort[v] = b.parentPort
		t.ChildPorts[v] = b.childPorts
	}
	return t
}

// --- Leader election / max flood --------------------------------------------

type maxFloodNode struct {
	best       int64
	dist       int32
	parentPort int
}

func (m *maxFloodNode) Init(v *View, out *Outbox) {
	m.best = int64(v.ID())
	m.dist = 0
	m.parentPort = -1
	out.Broadcast(v, Message{Kind: kindMax, A: m.best, B: 0})
}

func (m *maxFloodNode) Round(_ int, v *View, in []Inbound, out *Outbox) {
	improved := false
	for _, msg := range in {
		if msg.Msg.Kind != kindMax {
			continue
		}
		if msg.Msg.A > m.best {
			m.best = msg.Msg.A
			m.dist = int32(msg.Msg.B) + 1
			m.parentPort = msg.Port
			improved = true
		}
	}
	if improved {
		out.Broadcast(v, Message{Kind: kindMax, A: m.best, B: int64(m.dist)})
	}
}

func (m *maxFloodNode) Done() bool { return true }

// MaxFloodResult is the outcome of leader election by max-ID flooding.
type MaxFloodResult struct {
	Leader graph.NodeID
	// Dist[v] is v's hop distance to the leader; the leader's eccentricity
	// (max entry) is a ≤2-factor approximation of the diameter.
	Dist []int32
}

// EccApprox returns the leader's eccentricity, which satisfies
// ecc ≤ diameter ≤ 2·ecc in connected graphs.
func (r *MaxFloodResult) EccApprox() int32 {
	var ecc int32
	for _, d := range r.Dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// RunMaxFlood elects the maximum-ID node as leader and equips every node
// with its distance to the leader. Completes in O(D) rounds on connected
// graphs.
func RunMaxFlood(g *graph.Graph, eng Engine) (*MaxFloodResult, Stats, error) {
	factory := func(v *View) Program { return &maxFloodNode{} }
	stats, progs, err := eng.Run(g, factory)
	if err != nil {
		return nil, stats, err
	}
	res := &MaxFloodResult{Dist: make([]int32, g.NumNodes())}
	for v, p := range progs {
		m := p.(*maxFloodNode)
		res.Dist[v] = m.dist
		res.Leader = graph.NodeID(m.best) // identical at every node when connected
	}
	return res, stats, nil
}

// --- Tree aggregation (convergecast) and enumeration ------------------------

// aggNode performs a convergecast of int64 sums over a known tree, followed
// (optionally) by a prefix-sum down-phase that assigns consecutive indices to
// marked nodes — the "number the large components" step of the paper's
// distributed construction.
type aggNode struct {
	parentPort int
	childPorts []int
	value      int64
	enumerate  bool

	pendingChildren map[int]int64 // port -> subtree sum
	waiting         int
	subtotal        int64
	sentUp          bool

	offset int64 // prefix offset received from parent (root: 0)
	index  int64 // assigned index if marked (valid when enumerate)
	total  int64 // root only: grand total
	done   bool
}

func (a *aggNode) Init(v *View, out *Outbox) {
	a.waiting = len(a.childPorts)
	a.pendingChildren = make(map[int]int64, len(a.childPorts))
	a.subtotal = a.value
	a.index = -1
	if a.parentPort == -1 && a.waiting > 0 {
		return // root waits for children
	}
	if a.waiting == 0 {
		a.finishUp(v, out)
	}
}

func (a *aggNode) finishUp(v *View, out *Outbox) {
	if a.sentUp {
		return
	}
	a.sentUp = true
	if a.parentPort >= 0 {
		out.Send(a.parentPort, Message{Kind: kindCount, A: a.subtotal})
		return
	}
	// Root: totals complete; start the down-phase (or stop).
	a.total = a.subtotal
	a.startDown(v, out, 0)
}

func (a *aggNode) startDown(v *View, out *Outbox, offset int64) {
	a.offset = offset
	if a.enumerate {
		cursor := offset
		if a.value > 0 {
			a.index = cursor
			cursor += a.value
		}
		for _, p := range a.childPorts {
			out.Send(p, Message{Kind: kindOffset, A: cursor})
			cursor += a.pendingChildren[p]
		}
	}
	a.done = true
}

func (a *aggNode) Round(_ int, v *View, in []Inbound, out *Outbox) {
	for _, m := range in {
		switch m.Msg.Kind {
		case kindCount:
			a.pendingChildren[m.Port] = m.Msg.A
			a.subtotal += m.Msg.A
			a.waiting--
			if a.waiting == 0 {
				a.finishUp(v, out)
			}
		case kindOffset:
			a.startDown(v, out, m.Msg.A)
		}
	}
}

func (a *aggNode) Done() bool {
	if a.enumerate {
		return a.done
	}
	return a.sentUp
}

// EnumerateResult reports the outcome of RunEnumerate.
type EnumerateResult struct {
	// Index[v] is the 0-based index of marked node v (−1 if unmarked).
	Index []int64
	// Total is the number of marked nodes.
	Total int64
}

// RunEnumerate assigns consecutive indices 0..k-1 to the k marked nodes using
// a convergecast of subtree counts followed by a prefix-offset broadcast down
// the given tree. It completes in O(depth) rounds. Every tree node must be
// reachable (Tree from RunBFS on a connected graph).
func RunEnumerate(g *graph.Graph, tree *Tree, marked []bool, eng Engine) (*EnumerateResult, Stats, error) {
	factory := func(v *View) Program {
		var val int64
		if marked[v.ID()] {
			val = 1
		}
		return &aggNode{
			parentPort: tree.ParentPort[v.ID()],
			childPorts: tree.ChildPorts[v.ID()],
			value:      val,
			enumerate:  true,
		}
	}
	stats, progs, err := eng.Run(g, factory)
	if err != nil {
		return nil, stats, err
	}
	res := &EnumerateResult{Index: make([]int64, g.NumNodes())}
	for v, p := range progs {
		a := p.(*aggNode)
		res.Index[v] = a.index
		if graph.NodeID(v) == tree.Root {
			res.Total = a.total
		}
	}
	return res, stats, nil
}
