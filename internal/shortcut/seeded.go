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
// repetition), independent of every other edge (seededEdgeHits, the one
// definition of an edge's draws). So after a delta a surviving edge keeps
// its draws, and DeriveSeeded obtains the post-delta assignment from the
// old one — the old lists under the delta's edge remap, plus each inserted
// edge's Step-1 membership and draws — without drawing a surviving edge
// again; serve.ApplyDelta runs it instead of a rebuild.
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

// seededEdgeHits invokes hit(li) for every large-part index that edge
// {u, v} samples into: on each of reps repetitions, the arc u → v excluding
// u's own large part uLarge, then v → u excluding vLarge (each -1 outside
// every large part). all and logq as in seededArcHits. BuildSeeded and
// DeriveSeeded both draw an edge through it.
func seededEdgeHits(
	seed uint64,
	u, v graph.NodeID,
	uLarge, vLarge int32,
	numLarge, reps int,
	all bool,
	logq float64,
	hit func(li int32),
) {
	for r := 0; r < reps; r++ {
		seededArcHits(seed, u, v, r, numLarge, uLarge, all, logq, hit)
		seededArcHits(seed, v, u, r, numLarge, vLarge, all, logq, hit)
	}
}

// seededSampleHits is sampleHits with per-arc derived streams instead of one
// shared sequential rng: the same draws and distribution, but walked edge by
// edge, and every (arc, repetition)'s draws are independent of every other
// arc's.
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
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(e)
		seededEdgeHits(seed, u, v, largeOf(p, largeIdxOf, u), largeOf(p, largeIdxOf, v), numLarge, reps, all, logq, func(li int32) {
			hit(li, e)
		})
	}
}

// largeOf returns the large-part index of v's part, or -1 when v lies in no
// part or in a small one.
func largeOf(p *Partition, largeIdxOf []int32, v graph.NodeID) int32 {
	if pi := p.PartOf(v); pi >= 0 {
		return largeIdxOf[pi]
	}
	return -1
}

// BuildSeeded runs the centralized construction of Section 2 with seeded
// per-arc sampling: the result is a pure function of (g, p, opts, seed),
// with every edge's draws independent of every other edge's. This is the
// construction behind dynamic snapshots: serve.NewSnapshot builds with it,
// and DeriveSeeded carries its result through a delta, equal to rerunning it
// on the post-delta graph with the same seed. Options.Rng is ignored (and
// may be nil); everything else matches Build.
func BuildSeeded(g *graph.Graph, p *Partition, opts Options, seed uint64) (*Shortcuts, error) {
	return build("shortcut.BuildSeeded", g, p, opts, func(largeIdxOf []int32, numLarge int, params Params, hit func(li int32, e graph.EdgeID)) {
		seededSampleHits(g, p, largeIdxOf, numLarge, params.P, params.Reps, seed, hit)
	})
}
