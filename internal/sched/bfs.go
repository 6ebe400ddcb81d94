package sched

import (
	"math/bits"
	"sort"

	"repro/internal/graph"
)

// Per-task BFS state comes in two flat representations, chosen per run:
//
//   - dense: per-(task, node) visit-index/dist/parent-arc arrays of
//     numTasks·n entries, indexed task·n+node. The visited check is one
//     aligned load, and extraction walks the arrays in ascending (task,
//     node) order — no sorting, no searching. Chosen whenever
//     numTasks·n ≤ denseStateLimit.
//   - sparse: an epoch-tagged open-addressed (task, node) set plus append
//     arenas, for workloads (like early Borůvka phases) whose task count
//     makes the dense product prohibitive; extraction sorts each task's
//     visits and resolves children by binary search.
//
// Both paths produce byte-identical forests: visits are canonically
// ordered by (task, node) and children by notification arrival.

// denseStateLimit bounds numTasks·NumNodes for the dense representation
// (a visited bit, an 8-byte cell, and a 4-byte slot entry). It is a
// variable so tests can force the sparse path.
var denseStateLimit = 1 << 23

// denseCell is the per-(task, node) payload of the dense representation.
// The visited bits live in a word-aligned-per-task bitset — the only dense
// structure the hot rejected-token check touches, small enough to stay
// cache-resident — and are the only dense state cleared per run. Cells are
// written once per visit and gated by the bits; the slot array is written
// and read only during extraction (visited keys only), so neither is ever
// cleared.
type denseCell struct {
	dist int32
	parc int32
}

// bfsToken is the scheduler's BFS message, packed into two words: a visit
// token carrying the sender's distance (dist ≥ 0), or a child notification
// (dist == notifyToken). The sender is not carried — it is always
// graph.ArcTail(arc) of the arc the token rides.
type bfsToken struct {
	task int32
	dist int32
}

// notifyToken marks a child-notification token in bfsToken.dist.
const notifyToken int32 = -1

// bfsState is the sparse per-task BFS state and — in both representations
// — the child-notification arena in delivery order.
type bfsState struct {
	set   visitSet
	vtask []int32
	vnode []graph.NodeID
	vdist []int32
	vparc []int32
	ctask []int32
	carc  []int32 // down arc (parent→child), i.e. ArcReverse of the notification arc
}

func (st *bfsState) reset(sparse bool) {
	if sparse {
		st.set.reset()
	}
	st.vtask = st.vtask[:0]
	st.vnode = st.vnode[:0]
	st.vdist = st.vdist[:0]
	st.vparc = st.vparc[:0]
	st.ctask = st.ctask[:0]
	st.carc = st.carc[:0]
}

func visitKey(task int32, v graph.NodeID) uint64 {
	return uint64(uint32(task))<<32 | uint64(uint32(v))
}

// bfsRun is the drain handler of one ParallelBFS execution.
type bfsRun struct {
	r      *Runner
	g      *graph.Graph
	tasks  []BFSTask
	n      int  // NumNodes, the dense cell-row stride
	stride int  // words per task row of the visited bitset
	dense  bool // representation of this run
}

// visit records the first arrival of task ti at node v (arriving over arc,
// -1 at roots), reporting false if already visited.
func (h *bfsRun) visit(ti int32, v graph.NodeID, dist int32, arc int32) bool {
	if h.dense {
		r := h.r
		w := &r.denseBits[int(ti)*h.stride+int(v>>6)]
		bit := uint64(1) << (uint(v) & 63)
		if *w&bit != 0 {
			return false
		}
		*w |= bit
		r.dense[int(ti)*h.n+int(v)] = denseCell{dist: dist, parc: arc}
		return true
	}
	st := &h.r.bfsState
	if !st.set.add(visitKey(ti, v)) {
		return false
	}
	st.vtask = append(st.vtask, ti)
	st.vnode = append(st.vnode, v)
	st.vdist = append(st.vdist, dist)
	st.vparc = append(st.vparc, arc)
	return true
}

func (h *bfsRun) start(ti int32) {
	g := h.g
	t := &h.tasks[ti]
	d := &h.r.bfs
	if !h.visit(ti, t.Root, 0, -1) {
		return // tokens cannot predate the start; kept for symmetry with the seed
	}
	if t.DepthLimit == 0 {
		return
	}
	lo, hi := g.ArcRange(t.Root)
	for a := lo; a < hi; a++ {
		v := g.ArcTarget(a)
		if t.Allowed != nil && !t.Allowed(a, t.Root, v, g.ArcEdge(a)) {
			continue
		}
		d.send(a, bfsToken{task: ti, dist: 0})
	}
}

func (h *bfsRun) deliver(arc int32, tk bfsToken) {
	g := h.g
	d := &h.r.bfs
	v := g.ArcTarget(arc)
	if tk.dist == notifyToken {
		st := &h.r.bfsState
		st.ctask = append(st.ctask, tk.task)
		st.carc = append(st.carc, g.ArcReverse(arc))
		return
	}
	nd := tk.dist + 1
	if !h.visit(tk.task, v, nd, arc) {
		return
	}
	// Notify the parent over the reverse direction of this edge; the
	// notification shares bandwidth with everything else.
	d.send(g.ArcReverse(arc), bfsToken{task: tk.task, dist: notifyToken})
	t := &h.tasks[tk.task]
	if t.DepthLimit >= 0 && nd >= t.DepthLimit {
		return
	}
	lo, hi := g.ArcRange(v)
	if t.Allowed == nil {
		for a := lo; a < hi; a++ {
			d.send(a, bfsToken{task: tk.task, dist: nd})
		}
		return
	}
	for a := lo; a < hi; a++ {
		if !t.Allowed(a, v, g.ArcTarget(a), g.ArcEdge(a)) {
			continue
		}
		d.send(a, bfsToken{task: tk.task, dist: nd})
	}
}

// ParallelBFSInto runs ParallelBFS writing the outcome into f, reusing f's
// buffers. With a reused Runner the whole execution — round loop and
// extraction — is allocation-free in steady state.
func (r *Runner) ParallelBFSInto(f *BFSForest, g *graph.Graph, tasks []BFSTask, opts Options) (Stats, error) {
	if err := r.starts.plan(len(tasks), opts); err != nil {
		return Stats{}, err
	}
	d := &r.bfs
	d.prepare(g)
	n := g.NumNodes()
	dense := len(tasks) > 0 && n > 0 && len(tasks) <= denseStateLimit/n
	stride := (n + 63) / 64
	if dense {
		size := len(tasks) * n
		r.denseBits = resize(r.denseBits, len(tasks)*stride)
		for i := range r.denseBits {
			r.denseBits[i] = 0
		}
		r.dense = resize(r.dense, size)
		r.denseVis = resize(r.denseVis, size) // written during extraction only
	}
	r.bfsState.reset(!dense)
	r.bfsRun = bfsRun{r: r, g: g, tasks: tasks, n: n, stride: stride, dense: dense}
	d.h = &r.bfsRun

	maxRounds := opts.maxRounds(64*(g.NumNodes()+len(tasks)) + r.starts.last + 64)
	stats, err := d.drive(&r.starts, maxRounds, opts)
	// Extract even on ErrMaxRounds: partial outcomes are reported, as ever.
	if dense {
		r.extractForestDense(f, g, len(tasks))
	} else {
		r.extractForestSparse(f, g, len(tasks))
	}
	return stats, err
}

// extractForestDense walks the visited bitset in ascending (task, node)
// order — already the canonical forest order — writing each visit's forest
// slot into the slot array so the children pass is a direct lookup. Only
// visited keys of the slot array are ever written or read, so it needs no
// clearing.
func (r *Runner) extractForestDense(f *BFSForest, g *graph.Graph, numTasks int) {
	n := g.NumNodes()
	stride := (n + 63) / 64
	f.g = g
	f.taskOff = resize(f.taskOff, numTasks+1)
	f.nodes = f.nodes[:0]
	f.dist = f.dist[:0]
	f.parc = f.parc[:0]
	slots := 0
	for t := 0; t < numTasks; t++ {
		f.taskOff[t] = int32(slots)
		base := t * n
		for wi := 0; wi < stride; wi++ {
			word := r.denseBits[t*stride+wi]
			for word != 0 {
				v := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				c := r.dense[base+v]
				f.nodes = append(f.nodes, graph.NodeID(v))
				f.dist = append(f.dist, c.dist)
				f.parc = append(f.parc, c.parc)
				slots++
				r.denseVis[base+v] = int32(slots) // 1 + forest slot
			}
		}
	}
	f.taskOff[numTasks] = int32(slots)

	st := &r.bfsState
	f.childOff = resize(f.childOff, slots+1)
	for i := range f.childOff {
		f.childOff[i] = 0
	}
	f.childArc = resize(f.childArc, len(st.ctask))
	r.slotScratch = resize(r.slotScratch, len(st.ctask))
	for i, t := range st.ctask {
		s := r.denseVis[int(t)*n+int(g.ArcTail(st.carc[i]))] - 1
		r.slotScratch[i] = s
		f.childOff[s+1]++
	}
	for i := 0; i < slots; i++ {
		f.childOff[i+1] += f.childOff[i]
	}
	for i, s := range r.slotScratch {
		f.childArc[f.childOff[s]] = st.carc[i]
		f.childOff[s]++
	}
	for i := slots; i > 0; i-- {
		f.childOff[i] = f.childOff[i-1]
	}
	f.childOff[0] = 0
}

// extractForestSparse gathers the visit arenas into f's CSR layout: visits
// bucketed by task and sorted by node ID, children bucketed per visit
// preserving arrival order (the bucketing pass is stable).
func (r *Runner) extractForestSparse(f *BFSForest, g *graph.Graph, numTasks int) {
	st := &r.bfsState
	f.g = g
	f.taskOff = resize(f.taskOff, numTasks+1)
	for i := range f.taskOff {
		f.taskOff[i] = 0
	}
	total := len(st.vtask)
	f.nodes = resize(f.nodes, total)
	f.dist = resize(f.dist, total)
	f.parc = resize(f.parc, total)

	for _, t := range st.vtask {
		f.taskOff[t+1]++
	}
	for t := 0; t < numTasks; t++ {
		f.taskOff[t+1] += f.taskOff[t]
	}
	// Place visits using taskOff as running cursors, then shift back.
	for i, t := range st.vtask {
		j := f.taskOff[t]
		f.taskOff[t]++
		f.nodes[j] = st.vnode[i]
		f.dist[j] = st.vdist[i]
		f.parc[j] = st.vparc[i]
	}
	for t := numTasks; t > 0; t-- {
		f.taskOff[t] = f.taskOff[t-1]
	}
	f.taskOff[0] = 0
	// Node IDs are unique within a task, so any comparison sort yields the
	// same canonical order.
	for t := 0; t < numTasks; t++ {
		r.sorter = forestSorter{f: f, lo: f.taskOff[t], hi: f.taskOff[t+1]}
		sort.Sort(&r.sorter)
	}

	f.childOff = resize(f.childOff, total+1)
	for i := range f.childOff {
		f.childOff[i] = 0
	}
	f.childArc = resize(f.childArc, len(st.ctask))
	for i, t := range st.ctask {
		f.childOff[f.slot(t, g.ArcTail(st.carc[i]))+1]++
	}
	for i := 0; i < total; i++ {
		f.childOff[i+1] += f.childOff[i]
	}
	for i, t := range st.ctask {
		s := f.slot(t, g.ArcTail(st.carc[i]))
		f.childArc[f.childOff[s]] = st.carc[i]
		f.childOff[s]++
	}
	for i := total; i > 0; i-- {
		f.childOff[i] = f.childOff[i-1]
	}
	f.childOff[0] = 0
}

// slot returns the forest-wide visit index of (task, v); v must be visited.
func (f *BFSForest) slot(task int32, v graph.NodeID) int32 {
	lo, hi := int(f.taskOff[task]), int(f.taskOff[task+1])
	i := sort.Search(hi-lo, func(i int) bool { return f.nodes[lo+i] >= v })
	return int32(lo + i)
}

// forestSorter sorts one task's visit range by node ID, swapping the
// parallel arrays together. It lives in the Runner so extraction stays
// allocation-free.
type forestSorter struct {
	f      *BFSForest
	lo, hi int32
}

func (s *forestSorter) Len() int { return int(s.hi - s.lo) }

func (s *forestSorter) Less(i, j int) bool {
	return s.f.nodes[s.lo+int32(i)] < s.f.nodes[s.lo+int32(j)]
}

func (s *forestSorter) Swap(i, j int) {
	a, b := s.lo+int32(i), s.lo+int32(j)
	f := s.f
	f.nodes[a], f.nodes[b] = f.nodes[b], f.nodes[a]
	f.dist[a], f.dist[b] = f.dist[b], f.dist[a]
	f.parc[a], f.parc[b] = f.parc[b], f.parc[a]
}

// visitSet is an epoch-tagged open-addressed (task, node) membership set:
// flat arrays, linear probing, lazy clearing by epoch bump, geometric
// growth that stops once the high-water mark is reached — zero allocation
// in steady state.
type visitSet struct {
	keys  []uint64
	tags  []uint32
	mask  uint64
	n     int
	epoch uint32
}

func (s *visitSet) reset() {
	if len(s.keys) == 0 {
		s.keys = make([]uint64, 256)
		s.tags = make([]uint32, 256)
		s.mask = 255
	}
	s.epoch++
	if s.epoch == 0 { // tag wrap: clear once, then restart at 1
		for i := range s.tags {
			s.tags[i] = 0
		}
		s.epoch = 1
	}
	s.n = 0
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// add inserts key, reporting false if it was already present.
func (s *visitSet) add(key uint64) bool {
	if s.n >= len(s.keys)-len(s.keys)/4 {
		s.grow()
	}
	i := hash64(key) & s.mask
	for {
		if s.tags[i] != s.epoch {
			s.tags[i] = s.epoch
			s.keys[i] = key
			s.n++
			return true
		}
		if s.keys[i] == key {
			return false
		}
		i = (i + 1) & s.mask
	}
}

func (s *visitSet) grow() {
	oldKeys, oldTags := s.keys, s.tags
	s.keys = make([]uint64, 2*len(oldKeys))
	s.tags = make([]uint32, 2*len(oldTags))
	s.mask = uint64(len(s.keys) - 1)
	for i, t := range oldTags {
		if t != s.epoch {
			continue
		}
		k := oldKeys[i]
		j := hash64(k) & s.mask
		for s.tags[j] == s.epoch {
			j = (j + 1) & s.mask
		}
		s.tags[j] = s.epoch
		s.keys[j] = k
	}
}
