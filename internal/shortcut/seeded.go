package shortcut

import (
	"math"

	"repro/internal/graph"
)

// Seeded sampling: the dynamic-graph variant of the Section 2 construction.
//
// Build draws its Bernoulli samples from one sequential *rand.Rand stream,
// which welds every draw to the global arc iteration order: touching a
// single edge shifts every later draw, so a rebuild after a delta would
// resample every part. BuildSeeded instead derives an independent
// splitmix64 stream per (tail, head, repetition) triple, keyed by the
// endpoint node IDs — NOT by EdgeID, which a delta renumbers. The sampled
// hit set of an edge is then a pure function of (seed, endpoints,
// repetition), independent of every other edge: rebuilt after a delta with
// the same seed, unchanged edges keep their draws bit-for-bit and inserted
// edges get fresh deterministic ones, so every part the delta does not
// reach keeps its H (under the delta's edge remap) — and with it its
// dilation record, which serve.ApplyDelta reuses instead of re-measuring.
// RepairDistributed derives the same assignment part-locally.
//
// The per-stream geometric skip-sampling is the same Log1p trick as
// sampleHits, so the draw distribution is identical to Build's.

// splitmix64 is the SplitMix64 finalizer, the mixing function behind the
// per-arc sample streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sampleStream is a tiny deterministic uniform stream: splitmix64 in counter
// mode from a derived starting state.
type sampleStream struct{ state uint64 }

// arcStream derives the stream for one (tail, head, repetition) triple.
func arcStream(seed uint64, tail, head graph.NodeID, rep int) sampleStream {
	s := splitmix64(seed ^ (uint64(uint32(tail))<<32 | uint64(uint32(head))))
	return sampleStream{state: splitmix64(s ^ uint64(rep)*0xBF58476D1CE4E5B9)}
}

// next returns the next uniform float64 in [0, 1).
func (s *sampleStream) next() float64 {
	s.state += 0x9E3779B97F4A7C15
	return float64(splitmix64(s.state)>>11) / (1 << 53)
}

// seededArcHits invokes hit(li) for every large-part index the directed arc
// (tail → head) samples into on repetition rep, excluding the tail's own
// large part (tailLarge, or -1). all short-circuits p ≥ 1; logq is
// Log1p(-p) otherwise. The hit sequence is a pure function of the arguments.
func seededArcHits(
	seed uint64,
	tail, head graph.NodeID,
	rep int,
	numLarge int,
	tailLarge int32,
	all bool,
	logq float64,
	hit func(li int32),
) {
	if all {
		for li := int32(0); li < int32(numLarge); li++ {
			if li != tailLarge {
				hit(li)
			}
		}
		return
	}
	st := arcStream(seed, tail, head, rep)
	li := int32(0)
	for {
		// Geometric number of failures before the next success; compare in
		// float to avoid integer overflow on huge skips.
		skip := math.Log(1-st.next()) / logq
		if skip >= float64(int32(numLarge)-li) {
			break
		}
		li += int32(skip)
		if li != tailLarge {
			hit(li)
		}
		li++
	}
}

// seededSampleHits is sampleHits with per-arc derived streams instead of one
// shared sequential rng: same loop structure, same distribution, but every
// (arc, repetition)'s draws are independent of every other arc's.
func seededSampleHits(
	g *graph.Graph,
	p *Partition,
	largeIdxOf []int32,
	numLarge int,
	prob float64,
	reps int,
	seed uint64,
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
		uLarge := int32(-1)
		if uPart := p.PartOf(graph.NodeID(u)); uPart >= 0 {
			uLarge = largeIdxOf[uPart]
		}
		lo, hi := g.ArcRange(graph.NodeID(u))
		for a := lo; a < hi; a++ {
			head := g.ArcTarget(a)
			e := g.ArcEdge(a)
			for r := 0; r < reps; r++ {
				seededArcHits(seed, graph.NodeID(u), head, r, numLarge, uLarge, all, logq, func(li int32) {
					hit(li, e)
				})
			}
		}
	}
}

// BuildSeeded runs the centralized construction of Section 2 with seeded
// per-arc sampling: the result is a pure function of (g, p, opts, seed),
// with every edge's draws independent of every other edge's. This is the
// construction behind dynamic snapshots: serve.ApplyDelta reruns it on the
// post-delta graph with the original seed. Options.Rng is ignored (and may
// be nil); everything else matches Build.
func BuildSeeded(g *graph.Graph, p *Partition, opts Options, seed uint64) (*Shortcuts, error) {
	return build("shortcut.BuildSeeded", g, p, opts, func(largeIdxOf []int32, numLarge int, params Params, hit func(li int32, e graph.EdgeID)) {
		seededSampleHits(g, p, largeIdxOf, numLarge, params.P, params.Reps, seed, hit)
	})
}
