package shortcut

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The oracle below is BuildSeeded as it was before part masks: one
// logarithm per draw, a callback per hit, Step 1 into one edge bitset per
// large part, and the lists collected from the bitsets. The sampler must
// reproduce it bit for bit.

// oracleArcHits invokes hit(li) for every large-part index the directed arc
// (tail → head) samples into on repetition rep, excluding the tail's own
// large part (tailLarge, or -1). all short-circuits p ≥ 1; logq is
// Log1p(-p) otherwise.
func oracleArcHits(seed uint64, tail, head graph.NodeID, rep, numLarge int, tailLarge int32, all bool, logq float64, hit func(li int32)) {
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

// oracleEdgeHits invokes hit(li) for every large-part index edge {u, v}
// samples into: on each repetition, the arc u → v excluding uLarge, then
// v → u excluding vLarge.
func oracleEdgeHits(seed uint64, u, v graph.NodeID, uLarge, vLarge int32, numLarge, reps int, all bool, logq float64, hit func(li int32)) {
	for r := 0; r < reps; r++ {
		oracleArcHits(seed, u, v, r, numLarge, uLarge, all, logq, hit)
		oracleArcHits(seed, v, u, r, numLarge, vLarge, all, logq, hit)
	}
}

// oracleSampleHits invokes hit(li, e) for every seeded draw that takes edge
// e into large part li, edge by edge.
func oracleSampleHits(g *graph.Graph, p *Partition, largeIdxOf []int32, numLarge int, prob float64, reps int, seed uint64, hit func(li int32, e graph.EdgeID)) {
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
		oracleEdgeHits(seed, u, v, largeOf(p, largeIdxOf, u), largeOf(p, largeIdxOf, v), numLarge, reps, all, logq, func(li int32) {
			hit(li, e)
		})
	}
}

// oracleStepOne returns one edge bitset per large part holding Step 1:
// every edge incident to a node of the part.
func oracleStepOne(g *graph.Graph, p *Partition, large []int) []*graph.Bitset {
	his := make([]*graph.Bitset, len(large))
	for li, pi := range large {
		his[li] = graph.NewBitset(g.NumEdges())
		for _, u := range p.Part(pi).Nodes {
			lo, hi := g.ArcRange(u)
			for a := lo; a < hi; a++ {
				his[li].Set(g.ArcEdge(a))
			}
		}
	}
	return his
}

// oracleCollect assembles the assignment: large part large[li] receives the
// edges of his[li] in ascending order, every other part none.
func oracleCollect(p *Partition, params Params, large []int, his []*graph.Bitset) *Shortcuts {
	sc := &Shortcuts{P: p, H: make([][]graph.EdgeID, p.NumParts()), Params: params}
	for li, pi := range large {
		edges := make([]graph.EdgeID, 0, his[li].Count())
		his[li].ForEach(func(e int32) { edges = append(edges, e) })
		sc.H[pi] = edges
	}
	return sc
}

// oracleBuildSeeded is Step 1 plus oracleSampleHits, collected: BuildSeeded
// at params, which need not saturate.
func oracleBuildSeeded(g *graph.Graph, p *Partition, params Params, seed uint64) *Shortcuts {
	large := p.LargeParts(int(params.KD))
	his := oracleStepOne(g, p, large)
	oracleSampleHits(g, p, largeIndex(p, large), len(large), params.P, params.Reps, seed, func(li int32, e graph.EdgeID) {
		his[li].Set(e)
	})
	return oracleCollect(p, params, large, his)
}

// TestEdgeMaskMatchesWalk checks the per-edge mask against Step 1 plus the
// oracle's walk, over probabilities from nearly 0 to nearly 1, mask widths
// of one to three words, and endpoints inside one large part, two, or none.
func TestEdgeMaskMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, prob := range []float64{1e-6, 0.05, 0.13, 0.6, 0.99} {
		for _, numLarge := range []int{1, 31, 64, 65, 130} {
			for _, reps := range []int{1, 4} {
				s := newSeededSampler(rng.Uint64(), numLarge, Params{P: prob, Reps: reps})
				logq := math.Log1p(-prob)
				mask := make([]uint64, (numLarge+63)>>6)
				want := make([]uint64, len(mask))
				set := func(li int32) { want[li>>6] |= 1 << (uint(li) & 63) }
				full := 0
				for i := 0; i < 300; i++ {
					u, v := graph.NodeID(rng.Intn(1<<20)), graph.NodeID(rng.Intn(1<<20))
					large := func() int32 {
						if rng.Intn(3) == 0 {
							return -1
						}
						return int32(rng.Intn(numLarge))
					}
					uLarge, vLarge := large(), large()
					if i%7 == 0 {
						vLarge = uLarge // both endpoints in one part
					}
					clear(mask)
					clear(want)
					s.edgeMask(mask, u, v, uLarge, vLarge)
					for _, li := range []int32{uLarge, vLarge} {
						if li >= 0 {
							set(li)
						}
					}
					oracleEdgeHits(s.seed, u, v, uLarge, vLarge, numLarge, reps, false, logq, set)
					if !reflect.DeepEqual(mask, want) {
						t.Fatalf("p=%g numLarge=%d reps=%d edge {%d,%d} in parts (%d,%d): mask %x, want %x",
							prob, numLarge, reps, u, v, uLarge, vLarge, mask, want)
					}
					if popCount(want) == numLarge {
						full++
					}
				}
				if prob == 0.99 && full == 0 {
					t.Errorf("p=%g numLarge=%d reps=%d: no edge filled its mask, the early stop went untested", prob, numLarge, reps)
				}
			}
		}
	}
}

func popCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// TestSkipTableMatchesLog checks the table's skip against the logarithm it
// replaces, log(x)/log(q) capped at the limit, at every grid point within 3
// steps of each threshold q^k and of each margin edge, at the smallest draw
// x = 2⁻⁵³ and at x = 1, for every limit.
func TestSkipTableMatchesLog(t *testing.T) {
	const (
		numLarge = 130
		grid     = 1.0 / (1 << 53)
	)
	for _, prob := range []float64{1e-6, 0.05, 0.13, 0.6, 0.99} {
		s := newSeededSampler(1, numLarge, Params{P: prob, Reps: 1})
		xs := []float64{grid, 1}
		for k := 1; k <= numLarge; k++ {
			for _, t := range []float64{math.Exp(float64(k) * s.logq), s.lo[k], s.hi[k]} {
				j := math.Round(t / grid)
				for d := -3.0; d <= 3; d++ {
					if x := (j + d) * grid; x > 0 && x <= 1 {
						xs = append(xs, x)
					}
				}
			}
		}
		logged := 0
		for _, x := range xs {
			for limit := int32(1); limit <= numLarge; limit++ {
				want := limit
				if f := math.Log(x) / s.logq; f < float64(limit) {
					want = int32(f)
				}
				if got := s.skip(x, limit); got != want {
					t.Fatalf("p=%g x=%v limit=%d: skip %d, want %d", prob, x, limit, got, want)
				}
			}
			if k := s.skip(x, numLarge); k < numLarge && x > s.lo[k+1] && x <= s.hi[k+1] {
				logged++
			}
		}
		if logged == 0 {
			t.Errorf("p=%g: no draw fell inside a margin, the logarithm path went untested", prob)
		}
	}
}

// TestBuildSeededMatchesOracle checks BuildSeeded against the oracle on
// fixtures below saturation, one of them with more than 64 large parts, so
// that a mask spans two words.
func TestBuildSeededMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	er := gen.ErdosRenyi(2000, 12.0/2000, rng)
	parts, err := gen.VoronoiParts(er, 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := gen.NewHardInstance(1500, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		p    *Partition
		opts Options
	}{
		{"er2000/voronoi150", er, mustPartition(t, er, parts), Options{Diameter: 3}},
		{"hard1500/d4", hi.G, mustPartition(t, hi.G, hi.Paths), Options{Diameter: 4}},
	} {
		for _, lf := range []float64{0.05, 0.3, 1} {
			name := fmt.Sprintf("%s/lf=%g", c.name, lf)
			opts := c.opts
			opts.LogFactor = lf
			got, err := BuildSeeded(c.g, c.p, opts, 11)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Params.P >= 1 {
				t.Fatalf("%s: P = %v, the case must sample", name, got.Params.P)
			}
			if want := oracleBuildSeeded(c.g, c.p, got.Params, 11); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: BuildSeeded differs from the oracle", name)
			}
			if c.name == "er2000/voronoi150" && len(c.p.LargeParts(int(got.Params.KD))) <= 64 {
				t.Fatalf("%s: %d large parts, want more than 64", name, len(c.p.LargeParts(int(got.Params.KD))))
			}
		}
	}
}
