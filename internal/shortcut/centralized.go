package shortcut

import (
	"context"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Options configures the centralized construction.
type Options struct {
	// Diameter is the (assumed) diameter D used to derive kD. If 0, the
	// double-sweep lower bound of the graph is used (exact on the generator
	// families in internal/gen).
	Diameter int
	// Reps is the number of independent sampling repetitions of Step 2;
	// 0 selects the paper's D repetitions. (Ablation A1 varies this.)
	Reps int
	// LogFactor scales the log n term in the sampling probability
	// p = LogFactor·ln(n)·kD/N; 0 selects 1.0 (the paper's constant). At
	// small n and large D the paper's p saturates at 1; see EXPERIMENTS.md.
	LogFactor float64
	// Rng supplies randomness and must be non-nil.
	Rng *rand.Rand
	// Ctx, when non-nil, lets a caller abort the construction between its
	// sampling steps (the facade's context-first entry points thread their
	// context here; nil behaves like context.Background).
	Ctx context.Context
}

// ctxCheck returns the typed cancellation error if ctx is done.
func ctxCheck(op string, ctx context.Context) error { return reproerr.CtxCheck(op, ctx) }

// Build runs the centralized shortcut construction of Section 2:
//
//	Step 1: every node v ∈ Si adds all its incident edges to Hi.
//	Step 2: every node u ∉ Si adds each incident directed edge (u, v) to Hi
//	        independently with probability p; repeated Reps times.
//
// Only "large" parts (|Si| > kD) receive shortcut subgraphs; small parts
// already have diameter ≤ kD. Odd diameters are handled per Section 3.2 by
// sampling each half of a subdivided edge with probability √p — since both
// halves are needed, the per-edge inclusion probability is (√p)² = p, so the
// construction below (one draw at p) is distribution-identical; tree.go
// retains the per-level √p semantics for the dilation analysis artifacts.
func Build(g *graph.Graph, p *Partition, opts Options) (*Shortcuts, error) {
	const op = "shortcut.Build"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	return build(op, g, p, opts, func(masks *partMasks, largeIdxOf []int32, params Params) error {
		masks.stepOne(g, p, largeIdxOf)
		if err := ctxCheck(op, opts.Ctx); err != nil {
			return err
		}
		sampleHits(g, p, largeIdxOf, masks.numLarge, params.P, params.Reps, opts.Rng, masks.set)
		return nil
	})
}

// build is the Section 2 skeleton Build and BuildSeeded share: fill sets
// Step 1 and Step 2 in one part mask per edge, and each large part's list
// is collected from the masks at its exact size. At p ≥ 1 fill does not
// run: see saturated.
func build(
	op string,
	g *graph.Graph,
	p *Partition,
	opts Options,
	fill func(masks *partMasks, largeIdxOf []int32, params Params) error,
) (*Shortcuts, error) {
	d, err := resolveDiameter(op, g, p, opts.Diameter)
	if err != nil {
		return nil, err
	}
	if err := ctxCheck(op, opts.Ctx); err != nil {
		return nil, err
	}
	params := DeriveParams(g.NumNodes(), d, opts.Reps, opts.LogFactor)
	large := p.LargeParts(int(params.KD))
	if params.P >= 1 {
		return saturated(p, params, large, g.NumEdges()), nil
	}
	masks := newPartMasks(g.NumEdges(), len(large))
	if len(large) > 0 { // else no edge joins a list, and no step draws
		if err := fill(masks, largeIndex(p, large), params); err != nil {
			return nil, err
		}
	}
	return masks.collect(p, params, large), nil
}

// saturated is the assignment at p ≥ 1, where it is known without drawing:
// Step 1 takes every edge touching Si, and Step 2 at p = 1 takes every arc
// whose tail lies outside Si, so every large part's Hi is all of E. Neither
// sampler reads an Rng at p ≥ 1, so skipping them leaves the caller's
// stream where the samplers would have left it. Each large part gets its
// own list (see DESIGN.md "Saturated sampling").
func saturated(p *Partition, params Params, large []int, m int) *Shortcuts {
	sc := &Shortcuts{P: p, H: make([][]graph.EdgeID, p.NumParts()), Params: params}
	for _, pi := range large {
		all := make([]graph.EdgeID, m)
		for e := range all {
			all[e] = graph.EdgeID(e)
		}
		sc.H[pi] = all
	}
	return sc
}

// requireOver rejects a partition that was not built over g: its part-of
// table and node lists index another graph's nodes.
func requireOver(op string, g *graph.Graph, p *Partition) error {
	if p.Graph() != g {
		return reproerr.Invalid(op, "partition is over another graph (%d nodes; this one has %d)", p.Graph().NumNodes(), g.NumNodes())
	}
	return nil
}

// resolveDiameter rejects an empty graph or a partition over another graph
// and returns the diameter a construction runs at: d, or the graph's
// double-sweep lower bound when d is 0.
func resolveDiameter(op string, g *graph.Graph, p *Partition, d int) (int, error) {
	if err := requireOver(op, g, p); err != nil {
		return 0, err
	}
	if g.NumNodes() == 0 {
		return 0, reproerr.Invalid(op, "empty graph")
	}
	if d == 0 {
		lo, _ := graph.DiameterBounds(g)
		d = int(lo)
	}
	if d < 1 {
		return 0, reproerr.Invalid(op, "diameter %d < 1", d)
	}
	return d, nil
}

// largeIndex maps every part to its position in large, or -1 for a part
// that is not large.
func largeIndex(p *Partition, large []int) []int32 {
	idx := make([]int32, p.NumParts())
	for i := range idx {
		idx[i] = -1
	}
	for li, pi := range large {
		idx[pi] = int32(li)
	}
	return idx
}

// partMasks holds one part mask per edge: bit li of edge e's mask is set
// when e is in large part li's list. The constructions set Step 1 and
// Step 2 into the masks, and collect turns them into the lists.
type partMasks struct {
	numLarge int
	words    int      // ⌈numLarge/64⌉ words per mask
	bits     []uint64 // edge e's mask is bits[e·words : (e+1)·words]
}

// newPartMasks returns empty masks for m edges and numLarge large parts.
func newPartMasks(m, numLarge int) *partMasks {
	words := (numLarge + 63) >> 6
	return &partMasks{numLarge: numLarge, words: words, bits: make([]uint64, m*words)}
}

// mask returns edge e's mask.
func (pm *partMasks) mask(e graph.EdgeID) []uint64 {
	return pm.bits[int(e)*pm.words : (int(e)+1)*pm.words]
}

// set puts edge e into large part li's list.
func (pm *partMasks) set(li int32, e graph.EdgeID) {
	pm.bits[int(e)*pm.words+int(li>>6)] |= 1 << (uint(li) & 63)
}

// has reports whether edge e is in large part li's list.
func (pm *partMasks) has(li int32, e graph.EdgeID) bool {
	return pm.bits[int(e)*pm.words+int(li>>6)]&(1<<(uint(li)&63)) != 0
}

// stepOne sets Step 1: every edge joins the large parts of its endpoints.
func (pm *partMasks) stepOne(g *graph.Graph, p *Partition, largeIdxOf []int32) {
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(e)
		for _, li := range [2]int32{largeOf(p, largeIdxOf, u), largeOf(p, largeIdxOf, v)} {
			if li >= 0 {
				pm.set(li, e)
			}
		}
	}
}

// maxCount returns the largest number of large parts whose lists share an
// edge.
func (pm *partMasks) maxCount() int {
	most := 0
	for e := 0; e < len(pm.bits); e += pm.words {
		c := 0
		for _, w := range pm.bits[e : e+pm.words] {
			c += bits.OnesCount64(w)
		}
		most = max(most, c)
	}
	return most
}

// collect assembles the assignment: large part large[li] receives the
// edges whose mask holds li, in ascending order, in a list of exactly that
// length (one pass over the masks counts, a second fills); every other
// part receives none.
func (pm *partMasks) collect(p *Partition, params Params, large []int) *Shortcuts {
	sc := &Shortcuts{P: p, H: make([][]graph.EdgeID, p.NumParts()), Params: params}
	size := make([]int, len(large))
	for i, w := range pm.bits {
		base := i % pm.words << 6
		for ; w != 0; w &= w - 1 {
			size[base|bits.TrailingZeros64(w)]++
		}
	}
	lists := make([][]graph.EdgeID, len(large))
	for li := range lists {
		lists[li] = make([]graph.EdgeID, 0, size[li])
	}
	for i, w := range pm.bits {
		e, base := graph.EdgeID(i/pm.words), i%pm.words<<6
		for ; w != 0; w &= w - 1 {
			li := base | bits.TrailingZeros64(w)
			lists[li] = append(lists[li], e)
		}
	}
	for li, pi := range large {
		sc.H[pi] = lists[li]
	}
	return sc
}

// sampleHits invokes hit(largeIndex, edge) for every successful Bernoulli(p)
// draw of (directed arc, repetition, large part) with the arc's tail outside
// the part. Distribution-faithful to Step 2 of the centralized construction:
// geometric skip-sampling keeps the work proportional to the number of hits.
func sampleHits(
	g *graph.Graph,
	p *Partition,
	largeIdxOf []int32,
	numLarge int,
	prob float64,
	reps int,
	rng *rand.Rand,
	hit func(li int32, e graph.EdgeID),
) {
	if prob <= 0 || numLarge == 0 {
		return
	}
	all := prob >= 1
	var logq float64
	if !all {
		logq = math.Log1p(-prob)
	}
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		uPart := p.PartOf(graph.NodeID(u))
		uLarge := int32(-1)
		if uPart >= 0 {
			uLarge = largeIdxOf[uPart]
		}
		lo, hi := g.ArcRange(graph.NodeID(u))
		for a := lo; a < hi; a++ {
			e := g.ArcEdge(a)
			for r := 0; r < reps; r++ {
				if all {
					for li := int32(0); li < int32(numLarge); li++ {
						if li == uLarge {
							continue // u ∈ Si samples nothing for its own part
						}
						hit(li, e)
					}
					continue
				}
				li := int32(0)
				for {
					// Geometric number of failures before the next success;
					// compare in float to avoid integer overflow on huge skips.
					skip := math.Log(1-rng.Float64()) / logq
					if skip >= float64(int32(numLarge)-li) {
						break
					}
					li += int32(skip)
					if li != uLarge {
						hit(li, e)
					}
					li++
				}
			}
		}
	}
}
