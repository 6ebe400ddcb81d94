package graph

import "context"

// AugmentedView is a read-only view of the subgraph G[S] ∪ H where S is a
// node set and H is a set of extra undirected edges of G (by EdgeID). This is
// exactly the augmented subgraph whose diameter the shortcut dilation bound
// talks about: an arc (u, v) is usable if both endpoints are in S, or if its
// undirected edge is in H.
//
// Nodes of the view are: every node of S, plus every endpoint of an edge of
// H. Views share the parent graph's storage and are cheap to create relative
// to copying the subgraph. Dilation does not build views (DiametersAmong
// admits arcs by the same rule); only the tests' oracles do.
type AugmentedView struct {
	g   *Graph
	inS *Bitset // node membership in S
	inH *Bitset // edge membership in H
}

// NewAugmentedView builds the view of G[S] ∪ H. The caller retains ownership
// of the inputs; they are copied into internal bitsets.
func NewAugmentedView(g *Graph, s []NodeID, h []EdgeID) *AugmentedView {
	v := &AugmentedView{
		g:   g,
		inS: NewBitset(g.NumNodes()),
		inH: NewBitset(g.NumEdges()),
	}
	for _, u := range s {
		v.inS.Set(u)
	}
	for _, e := range h {
		v.inH.Set(e)
	}
	return v
}

// Graph returns the parent graph.
func (v *AugmentedView) Graph() *Graph { return v.g }

// UsableArc reports whether the directed arc (u, v) with edge e may be
// traversed inside the view.
func (v *AugmentedView) UsableArc(u, w NodeID, e EdgeID) bool {
	if v.inH.Has(e) {
		return true
	}
	return v.inS.Has(u) && v.inS.Has(w)
}

// Filter returns an ArcFilter admitting exactly the view's usable arcs.
func (v *AugmentedView) Filter() ArcFilter {
	return func(_ int32, u, w NodeID, e EdgeID) bool {
		return v.UsableArc(u, w, e)
	}
}

// BFS runs a breadth-first search inside the view from src. src must be a
// node of the view.
func (v *AugmentedView) BFS(src NodeID) *BFSResult {
	return FilteredBFS(v.g, src, v.Filter())
}

// EccentricityAmong returns the largest hop distance from src to any node of
// interest inside the view, or -1 if some interest node is unreachable.
// In a connected view, the true diameter among interest nodes lies in
// [ecc, 2·ecc].
func (v *AugmentedView) EccentricityAmong(src NodeID, interest []NodeID) int32 {
	res := v.BFS(src)
	var ecc int32
	for _, t := range interest {
		d := res.Dist[t]
		if d == Unreached {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// AmongSet is one set of DiametersAmong: the nodes S whose distances are
// measured, the extra edges H of their view G[S] ∪ H (the view
// NewAugmentedView(g, S, H) describes), and the sources Src those distances
// are measured from. H lists each edge at most once. Src lists nodes of S;
// nil means all of S, so the set reads its diameter, while a single source
// reads that node's eccentricity among S.
type AmongSet struct {
	S   []NodeID
	H   []EdgeID
	Src []NodeID
}

// sources returns the nodes the set's distances are measured from.
func (a AmongSet) sources() []NodeID {
	if a.Src == nil {
		return a.S
	}
	return a.Src
}

// pullFactor picks each level's direction in DiametersAmong: the level
// pulls when pullFactor·|frontier| ≥ |unfinished nodes|, and pushes
// otherwise. A pulled arc reads one word where a pushed arc reads two and
// mostly writes one, so pulling pays before the frontier outnumbers the
// unfinished nodes (DESIGN.md "Measuring dilation" has the measurements).
const pullFactor = 2

// DiametersAmong returns, for each of the vertex-disjoint sets, the largest
// hop distance from one of its sources to one of its nodes inside its own
// view G[S] ∪ H, or -1 if some source and node are disconnected there. With
// Src nil that is the set's diameter, the exact dilation of an augmented
// part; with one source it is that source's eccentricity among S. Every set
// is measured in one pass.
//
// It is a level-synchronous multi-source BFS with one bit per source in a
// uint64 per node (Then et al., VLDB 2014). The sets' sources, concatenated
// in order, are packed 64 to a word: consecutive sets share a word, and a
// set of more than 64 sources spans several. A bit crosses only the arcs
// its own set's view admits, so it first reaches a node at the node's BFS
// level from its source in that view, and a node counts only its own set's
// bits toward that set's result. A level pushes from the frontier while it
// is small and pulls into the unfinished nodes once it is large (Beamer et
// al., SC 2012), and a word ends once every node of its sets holds all of
// its own set's bits. See DESIGN.md "Measuring dilation".
//
// ctx (nil: never canceled) is checked before every 64-source sweep; once it
// is done, DiametersAmong returns ctx.Err().
func DiametersAmong(ctx context.Context, g *Graph, sets []AmongSet) ([]int32, error) {
	n := g.NumNodes()
	k := &packedBFS{
		g:     g,
		sets:  sets,
		own:   make([]int32, n),
		seen:  make([]uint64, n),
		cur:   make([]uint64, n),
		next:  make([]uint64, n),
		mask:  make([]uint64, len(sets)),
		hBits: make([]*Bitset, len(sets)),
		diam:  make([]int32, len(sets)),
		// A word with a saturated or sampled set makes every node a pull
		// candidate, so each list can reach n; sizing them once keeps
		// append from regrowing them.
		frontier: make([]NodeID, 0, n),
		grown:    make([]NodeID, 0, n),
		touched:  make([]NodeID, 0, n),
		cand:     make([]NodeID, 0, n),
	}
	for v := range k.own {
		k.own[v] = -1
	}
	for j, set := range sets {
		for _, v := range set.S {
			k.own[v] = int32(j)
		}
	}
	j, off := 0, 0 // the next source is sets[j].sources()[off]
	for {
		k.parts, k.sources = k.parts[:0], k.sources[:0]
		for ; len(k.sources) < 64 && j < len(sets); j, off = j+1, 0 {
			s := sets[j].sources()[off:]
			t := min(len(s), 64-len(k.sources))
			if t == 0 {
				continue
			}
			k.parts = append(k.parts, wordPart{
				set:  j,
				bits: (uint64(1)<<t - 1) << len(k.sources),
				last: t == len(s),
			})
			k.sources = append(k.sources, s[:t]...)
			if t < len(s) {
				off += t
				break
			}
		}
		if len(k.sources) == 0 {
			return k.diam, nil
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		k.sweep()
	}
}

// packedBFS is DiametersAmong's scratch, allocated once per call.
type packedBFS struct {
	g    *Graph
	sets []AmongSet
	own  []int32 // node -> index of its set, -1 outside every set

	// seen: the bits a node holds; cur: the bits it gained at the last
	// level; next: the bits it gains at the level being expanded.
	seen, cur, next []uint64

	// The current word: its sources, its sets with their bits, and each
	// set's bits by set index (0 for sets outside the word).
	sources []NodeID
	parts   []wordPart
	mask    []uint64
	// sat and samp are the bits of the word's saturated sets (H = E) and of
	// its sampled ones (H ≠ ∅, H ≠ E); sampled lists the latter with their
	// H as an edge bitset. hBits holds a sampled set's bitset from its first
	// word to its last; free keeps released bitsets, cleared, for reuse.
	sat, samp uint64
	sampled   []sampledPart
	hBits     []*Bitset
	free      []*Bitset

	frontier, grown, touched, cand []NodeID
	diam                           []int32
}

type wordPart struct {
	set  int
	bits uint64
	last bool // the set's last word
}

type sampledPart struct {
	bits uint64
	h    *Bitset
}

// sweep runs the BFS of the current word's sources and folds its levels
// into the word's sets' diameters.
func (k *packedBFS) sweep() {
	g, own, seen, cur, next := k.g, k.own, k.seen, k.cur, k.next
	m := g.NumEdges()
	k.sat, k.samp, k.sampled = 0, 0, k.sampled[:0]
	// pending counts the word's set nodes that lack some of their own set's
	// bits; unfinished counts the nodes that may still gain a bit.
	pending := 0
	for _, p := range k.parts {
		set := k.sets[p.set]
		k.mask[p.set] = p.bits
		pending += len(set.S)
		switch len(set.H) {
		case 0:
		case m:
			k.sat |= p.bits
		default:
			k.samp |= p.bits
			k.sampled = append(k.sampled, sampledPart{bits: p.bits, h: k.edgeSet(p.set)})
		}
	}
	wide := k.sat|k.samp != 0
	unfinished := pending
	if wide {
		unfinished = g.NumNodes()
	}
	candReady := false

	frontier, grown := k.frontier[:0], k.grown[:0]
	k.touched = k.touched[:0]
	for i, s := range k.sources {
		next[s] = 1 << i
		grown = append(grown, s)
	}
	for level := int32(0); ; level++ {
		for _, u := range frontier {
			cur[u] = 0
		}
		for _, w := range grown {
			gain := next[w]
			next[w] = 0
			if seen[w] == 0 {
				k.touched = append(k.touched, w)
			}
			cur[w] = gain
			seen[w] |= gain
			var om uint64
			if o := own[w]; o >= 0 {
				om = k.mask[o]
				if gain&om != 0 {
					if d := k.diam[o]; d >= 0 && level > d {
						k.diam[o] = level
					}
					if seen[w]&om == om {
						pending--
					}
				}
			}
			if r := k.sat | k.samp | om; seen[w]&r == r {
				unfinished--
			}
		}
		frontier, grown = grown, frontier[:0]
		if len(frontier) == 0 || pending == 0 {
			break
		}
		if pullFactor*len(frontier) >= unfinished {
			if !candReady {
				k.candidates(wide)
				candReady = true
			}
			grown = k.pull(grown)
		} else {
			grown = k.push(frontier, grown)
		}
	}
	k.frontier, k.grown = frontier, grown

	if pending > 0 {
		// The frontier died out before every set node held its own set's
		// bits: those sets are disconnected in their views.
		for _, p := range k.parts {
			for _, v := range k.sets[p.set].S {
				if seen[v]&p.bits != p.bits {
					k.diam[p.set] = -1
					break
				}
			}
		}
	}
	for _, v := range k.touched {
		seen[v], cur[v] = 0, 0
	}
	for _, p := range k.parts {
		k.mask[p.set] = 0
		if h := k.hBits[p.set]; h != nil && p.last {
			for _, e := range k.sets[p.set].H {
				h.Clear(e)
			}
			k.free = append(k.free, h)
			k.hBits[p.set] = nil
		}
	}
}

// edgeSet returns sampled set j's H as an edge bitset, filling one at the
// set's first word.
func (k *packedBFS) edgeSet(j int) *Bitset {
	if h := k.hBits[j]; h != nil {
		return h
	}
	var h *Bitset
	if l := len(k.free); l > 0 {
		h, k.free = k.free[l-1], k.free[:l-1]
	} else {
		h = NewBitset(k.g.NumEdges())
	}
	for _, e := range k.sets[j].H {
		h.Set(e)
	}
	k.hBits[j] = h
	return h
}

// admit returns the bits of gain that may cross the arc (u, w) of edge e:
// a saturated set's bits over every arc, a set's bits over its intra-set
// arcs, and a sampled set's bits over its H edges.
func (k *packedBFS) admit(gain uint64, u, w NodeID, e EdgeID) uint64 {
	ok := gain & k.sat
	if o := k.own[u]; o >= 0 && o == k.own[w] {
		ok |= gain & k.mask[o]
	}
	for _, sp := range k.sampled {
		if gain&sp.bits != 0 && sp.h.Has(e) {
			ok |= gain & sp.bits
		}
	}
	return ok
}

// push expands the frontier along its arcs and appends to grown every node
// that gains a bit.
func (k *packedBFS) push(frontier, grown []NodeID) []NodeID {
	g, seen, cur, next, sat := k.g, k.seen, k.cur, k.next, k.sat
	for _, u := range frontier {
		bits := cur[u]
		for a := g.offsets[u]; a < g.offsets[u+1]; a++ {
			w := g.neighbors[a]
			gain := bits &^ (seen[w] | next[w])
			if gain&^sat != 0 {
				gain = k.admit(gain, u, w, g.arcEdge[a])
			}
			if gain == 0 {
				continue
			}
			if next[w] == 0 {
				grown = append(grown, w)
			}
			next[w] |= gain
		}
	}
	return grown
}

// candidates lists the nodes a pull scans: every node when the word holds
// bits of a saturated or sampled set, else the nodes of the word's sets,
// the only ones an intra-set bit can reach.
func (k *packedBFS) candidates(wide bool) {
	k.cand = k.cand[:0]
	if wide {
		for v := range k.own {
			k.cand = append(k.cand, NodeID(v))
		}
		return
	}
	for _, p := range k.parts {
		k.cand = append(k.cand, k.sets[p.set].S...)
	}
}

// pull lets every unfinished candidate collect its neighbours' bits of the
// last level, stopping once it holds every bit it lacked, appends to grown
// every node that gains a bit, and drops finished candidates.
func (k *packedBFS) pull(grown []NodeID) []NodeID {
	g, own, seen, cur, next, sat := k.g, k.own, k.seen, k.cur, k.next, k.sat
	kept := k.cand[:0]
	for _, w := range k.cand {
		need := (sat | k.samp) &^ seen[w]
		if o := own[w]; o >= 0 {
			need |= k.mask[o] &^ seen[w]
		}
		if need == 0 {
			continue
		}
		kept = append(kept, w)
		var got uint64
		for a := g.offsets[w]; a < g.offsets[w+1]; a++ {
			u := g.neighbors[a]
			gain := cur[u] & need &^ got
			if gain&^sat != 0 {
				gain = k.admit(gain, u, w, g.arcEdge[a])
			}
			if got |= gain; got == need {
				break
			}
		}
		if got != 0 {
			next[w] = got
			grown = append(grown, w)
		}
	}
	k.cand = kept
	return grown
}
