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
// endpoint node IDs — NOT by EdgeID, which a delta renumbers. An edge's
// membership is then a pure function of (seed, endpoints, the large parts
// of its endpoints), independent of every other edge: seededSampler's
// edgeMask is its one definition. So after a delta a surviving edge keeps
// its membership, and DeriveSeeded obtains the post-delta assignment from
// the old one — the old lists under the delta's edge remap, plus each
// inserted edge's edgeMask — without drawing a surviving edge again;
// serve.ApplyDelta runs it instead of a rebuild.
//
// edgeMask ORs an edge's streams into one mask of large parts and stops
// once the mask holds every part: the streams are independent and a part
// cannot join twice, so the draws it skips could add nothing. Each stream
// walks the large parts by geometric skips, as sampleHits does, but decides
// a skip by comparing the draw with a table of q^k instead of taking a
// logarithm (DESIGN.md "Seeded sampling"); a draw the table cannot decide
// takes the logarithm, so every skip, and every mask, is the one
// log(1−u)/log(q) gives.

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

// next returns the next uniform float64 in [0, 1), a multiple of 2⁻⁵³.
func (s *sampleStream) next() float64 {
	s.state += 0x9E3779B97F4A7C15
	return float64(splitmix64(s.state)>>11) / (1 << 53)
}

// skipMargin is the relative margin around each q^k inside which the table
// defers to the logarithm. The logarithm's own error is a few units in the
// last place, ~10⁻¹⁴ relative over the range where q^k ≥ 2⁻⁵³.
const skipMargin = 1e-9

// The guide table indexes a draw x ∈ [2⁻⁵³, 1] by its exponent and top
// guideBits mantissa bits, 2^guideBits buckets per binade; guideBase is the
// index of x = 2⁻⁵³'s bucket.
const (
	guideBits = 4
	guideBase = (1023 - 53) << guideBits
)

// seededSampler draws BuildSeeded's Step 2 edge by edge, at probability p
// into numLarge large parts on each of reps repetitions.
type seededSampler struct {
	seed     uint64
	numLarge int32
	reps     int // 0 when p ≤ 0: nothing is drawn
	logq     float64
	// lo[k] = q^k·(1−skipMargin) and hi[k] = q^k·(1+skipMargin) for
	// k = 1..numLarge, q = 1 − p; lo[numLarge+1] = -1 ends every search.
	lo, hi []float64
	// guide[b] counts the k with lo[k] above every draw in bucket b: a
	// search for such a draw starts past them.
	guide []int32
}

// newSeededSampler returns the sampler of a build with the given seed,
// number of large parts and parameters; params.P must be below 1.
func newSeededSampler(seed uint64, numLarge int, params Params) *seededSampler {
	s := &seededSampler{seed: seed, numLarge: int32(numLarge)}
	if params.P <= 0 || numLarge == 0 {
		return s
	}
	s.reps = params.Reps
	s.logq = math.Log1p(-params.P)
	s.lo = make([]float64, numLarge+2)
	s.hi = make([]float64, numLarge+1)
	for k := 1; k <= numLarge; k++ {
		t := math.Exp(float64(k) * s.logq)
		s.lo[k], s.hi[k] = t*(1-skipMargin), t*(1+skipMargin)
	}
	s.lo[numLarge+1] = -1
	s.guide = make([]int32, 53<<guideBits+1)
	k := s.numLarge
	for b := range s.guide {
		// top is the smallest float above bucket b; it grows with b, and lo
		// falls with k.
		top := math.Float64frombits(uint64(guideBase+b+1) << (52 - guideBits))
		for k > 0 && s.lo[k] < top {
			k--
		}
		s.guide[b] = k
	}
	return s
}

// skip returns the number of failures before a stream's next success given
// its draw x = 1 − u, ⌊math.Log(x)/logq⌋, capped at limit ≥ 1 (a skip of
// limit or more ends the stream). x ∈ (0, 1] is a multiple of 2⁻⁵³, and in
// exact arithmetic skip ≥ k when x ≤ q^k. The search decides that against
// the table from x's guide entry on; a draw within skipMargin of some q^k,
// where rounding could decide it, takes the logarithm instead.
func (s *seededSampler) skip(x float64, limit int32) int32 {
	k := s.guide[math.Float64bits(x)>>(52-guideBits)-guideBase] + 1
	for x <= s.lo[k] {
		k++
	}
	if k > limit {
		return limit
	}
	if x <= s.hi[k] {
		return s.logSkip(x, limit)
	}
	return k - 1
}

// logSkip is skip by the logarithm.
func (s *seededSampler) logSkip(x float64, limit int32) int32 {
	// Compare in float to avoid integer overflow on huge skips.
	f := math.Log(x) / s.logq
	if f >= float64(limit) {
		return limit
	}
	return int32(f)
}

// edgeMask sets in mask (zero on entry) the large parts whose list holds
// edge {u, v}: Step 1's, the large parts uLarge and vLarge of its endpoints
// (-1 outside every large part), and Step 2's, the parts hit by the stream
// of arc u → v and that of v → u on each repetition. It stops drawing once
// mask holds every large part. This is the one definition of a seeded
// edge's membership; BuildSeeded and DeriveSeeded both draw through it.
func (s *seededSampler) edgeMask(mask []uint64, u, v graph.NodeID, uLarge, vLarge int32) {
	missing := s.numLarge
	for _, li := range [2]int32{uLarge, vLarge} {
		if li >= 0 && join(mask, li) {
			missing--
		}
	}
	for r := 0; r < s.reps && missing > 0; r++ {
		missing = s.arcHits(mask, missing, u, v, r)
		if missing > 0 {
			missing = s.arcHits(mask, missing, v, u, r)
		}
	}
}

// arcHits ORs into mask the large parts the stream of arc tail → head hits
// on repetition rep, given that mask misses missing > 0 parts, and returns
// how many it misses after; it stops drawing at none. Unlike sampleHits it
// does not skip the tail's own large part: Step 1 already holds it.
func (s *seededSampler) arcHits(mask []uint64, missing int32, tail, head graph.NodeID, rep int) int32 {
	st := arcStream(s.seed, tail, head, rep)
	for li := int32(0); li < s.numLarge; li++ {
		limit := s.numLarge - li
		k := s.skip(1-st.next(), limit)
		if k == limit {
			break
		}
		li += k
		if join(mask, li) {
			if missing--; missing == 0 {
				break
			}
		}
	}
	return missing
}

// join sets bit li of mask and reports whether it was clear.
func join(mask []uint64, li int32) bool {
	w, b := li>>6, uint64(1)<<(uint(li)&63)
	if mask[w]&b != 0 {
		return false
	}
	mask[w] |= b
	return true
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
// with every edge's membership independent of every other edge's. Each
// edge's part mask comes from seededSampler's edgeMask, and the lists are
// collected from the masks. This is the construction behind dynamic
// snapshots: serve.NewSnapshot builds with it, and DeriveSeeded carries its
// result through a delta, equal to rerunning it on the post-delta graph with
// the same seed. Options.Rng is ignored (and may be nil); everything else
// matches Build.
func BuildSeeded(g *graph.Graph, p *Partition, opts Options, seed uint64) (*Shortcuts, error) {
	return build("shortcut.BuildSeeded", g, p, opts, func(masks *partMasks, largeIdxOf []int32, params Params) error {
		s := newSeededSampler(seed, masks.numLarge, params)
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			u, v := g.EdgeEndpoints(e)
			s.edgeMask(masks.mask(e), u, v, largeOf(p, largeIdxOf, u), largeOf(p, largeIdxOf, v))
		}
		return nil
	})
}
