package shortcut

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// samplingFixture: a path of 6 nodes with two 3-node parts.
func samplingFixture(t *testing.T) (*graph.Graph, *Partition) {
	t.Helper()
	g := gen.Path(6)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	return g, p
}

func TestSampleHitsProbabilityOne(t *testing.T) {
	g, p := samplingFixture(t)
	largeIdxOf := []int32{0, 1}
	hits := make(map[[2]int32]bool)
	sampleHits(g, p, largeIdxOf, 2, 1.0, 1, rand.New(rand.NewSource(1)),
		func(li int32, e graph.EdgeID) { hits[[2]int32{li, e}] = true })
	// Edge {2,3} spans the parts: arc 2->3 has tail in part 0, so it samples
	// only for part 1; arc 3->2 samples only for part 0. Both (part, edge)
	// pairs must appear.
	bridge, _ := g.FindEdge(2, 3)
	if !hits[[2]int32{0, bridge}] || !hits[[2]int32{1, bridge}] {
		t.Error("bridge edge not sampled into both parts")
	}
	// Edge {0,1} is interior to part 0: neither endpoint may sample it for
	// part 0, but both sample it for part 1.
	e01, _ := g.FindEdge(0, 1)
	if hits[[2]int32{0, e01}] {
		t.Error("interior edge sampled into its own part by its own nodes")
	}
	if !hits[[2]int32{1, e01}] {
		t.Error("interior edge of part 0 not sampled into part 1")
	}
}

func TestSampleHitsZeroProbability(t *testing.T) {
	g, p := samplingFixture(t)
	count := 0
	sampleHits(g, p, []int32{0, 1}, 2, 0, 3, rand.New(rand.NewSource(2)),
		func(int32, graph.EdgeID) { count++ })
	if count != 0 {
		t.Errorf("p=0 produced %d hits", count)
	}
}

func TestSampleHitsMeanMatchesExpectation(t *testing.T) {
	// Statistical check of the geometric skip sampler: total hit count over
	// many repetitions must match #arcs·reps·(numLarge-own)·p within 5σ.
	g, p := samplingFixture(t)
	const (
		prob  = 0.137
		reps  = 400
		parts = 2
	)
	total := 0
	rng := rand.New(rand.NewSource(3))
	sampleHits(g, p, []int32{0, 1}, parts, prob, reps, rng,
		func(int32, graph.EdgeID) { total++ })
	// Every arc's tail is in some part, so each (arc, rep) draws for exactly
	// parts-1 = 1 part.
	trials := float64(g.NumArcs() * reps * (parts - 1))
	mean := trials * prob
	sigma := math.Sqrt(trials * prob * (1 - prob))
	if math.Abs(float64(total)-mean) > 5*sigma {
		t.Errorf("hits = %d, expected %f ± %f", total, mean, 5*sigma)
	}
}

func TestSampleHitsSkipsOwnPartAlways(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(20, 0.2, rng)
		parts, err := gen.VoronoiParts(g, 4, rng)
		if err != nil {
			return true // disconnected; skip
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		largeIdxOf := []int32{0, 1, 2, 3}
		ok := true
		sampleHits(g, p, largeIdxOf, 4, 0.9, 2, rng, func(li int32, e graph.EdgeID) {
			u, v := g.EdgeEndpoints(e)
			// The hit is legal if at least one endpoint lies outside part li
			// (that endpoint may have sampled it).
			if p.PartOf(u) == li && p.PartOf(v) == li {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuildStep1Property(t *testing.T) {
	// Property: for every large part, every edge incident to a part node is
	// in H (Step 1 has probability 1), regardless of the sampling outcome.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hi, err := gen.NewHardInstance(600, 4, 0, 0, rng)
		if err != nil {
			return false
		}
		p, err := NewPartition(hi.G, hi.Paths)
		if err != nil {
			return false
		}
		s, err := Build(hi.G, p, Options{Diameter: 4, LogFactor: 0.1, Rng: rng})
		if err != nil {
			return false
		}
		kd := int(s.Params.KD)
		for i := 0; i < p.NumParts(); i++ {
			if len(p.Part(i).Nodes) <= kd {
				continue
			}
			inH := graph.NewBitset(hi.G.NumEdges())
			for _, e := range s.H[i] {
				inH.Set(e)
			}
			for _, u := range p.Part(i).Nodes {
				lo, hiArc := hi.G.ArcRange(u)
				for a := lo; a < hiArc; a++ {
					if !inH.Has(hi.G.ArcEdge(a)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestBuildQualityMonotoneInLogFactor(t *testing.T) {
	// Higher sampling probability can only (weakly) increase congestion and
	// decrease dilation in expectation; check the trend over a seed.
	rng := func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }
	hi, err := gen.NewHardInstance(1500, 4, 0, 0, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)
	low, err := Build(hi.G, p, Options{Diameter: 4, LogFactor: 0.1, Rng: rng(2)})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Build(hi.G, p, Options{Diameter: 4, LogFactor: 0.9, Rng: rng(2)})
	if err != nil {
		t.Fatal(err)
	}
	if high.TotalShortcutEdges() < low.TotalShortcutEdges() {
		t.Error("higher LogFactor produced fewer shortcut edges")
	}
	lq, err := low.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	hq, err := high.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	if hq.Congestion < lq.Congestion {
		t.Errorf("congestion decreased with more sampling: %d -> %d", lq.Congestion, hq.Congestion)
	}
	if hq.DilationHi > lq.DilationHi+2 {
		t.Errorf("dilation grew with more sampling: %d -> %d", lq.DilationHi, hq.DilationHi)
	}
}

// TestBuildSaturatedMatchesSampler pins build's p ≥ 1 branch to the steps it
// skips: Step 1 plus each sampler at probability 1, collected, with the
// oracle's Step 1, collection and seeded sampler (seeded_test.go). Small
// parts must stay nil, every large part must own its list, and Build must
// leave its Rng where the sampler, which draws nothing at p = 1, would have.
func TestBuildSaturatedMatchesSampler(t *testing.T) {
	type satCase struct {
		name string
		g    *graph.Graph
		p    *Partition
		opts Options
		mix  bool // must hold both small and large parts
	}
	g, p := samplingFixture(t)
	cases := []satCase{{"path6", g, p, Options{Diameter: 5, LogFactor: 2}, false}}

	rng := rand.New(rand.NewSource(5))
	er := gen.ErdosRenyi(200, 0.03, rng)
	parts, err := gen.VoronoiParts(er, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, satCase{"er200/voronoi", er, mustPartition(t, er, parts), Options{Diameter: 5}, false})
	// A singleton (small) part, four Voronoi parts, and three parts' worth
	// of nodes in no part at all.
	mixed := append([][]graph.NodeID{{parts[0][0]}}, parts[1:5]...)
	cases = append(cases, satCase{"er200/mixed", er, mustPartition(t, er, mixed), Options{Diameter: 5}, true})

	const seed = 42
	for _, c := range cases {
		for _, reps := range []int{1, 0} { // 0: the paper's D repetitions
			name := fmt.Sprintf("%s/reps=%d", c.name, reps)
			opts := c.opts
			opts.Reps = reps
			params := DeriveParams(c.g.NumNodes(), opts.Diameter, reps, opts.LogFactor)
			if params.P < 1 {
				t.Fatalf("%s: P = %v, the case must saturate", name, params.P)
			}
			large := c.p.LargeParts(int(params.KD))
			isLarge := make([]bool, c.p.NumParts())
			for _, pi := range large {
				isLarge[pi] = true
			}
			if c.mix && (len(large) == 0 || len(large) == c.p.NumParts()) {
				t.Fatalf("%s: %d of %d parts large, want a mix", name, len(large), c.p.NumParts())
			}
			oracle := func(step2 func(largeIdxOf []int32, hit func(li int32, e graph.EdgeID))) *Shortcuts {
				his := oracleStepOne(c.g, c.p, large)
				step2(largeIndex(c.p, large), func(li int32, e graph.EdgeID) { his[li].Set(e) })
				return oracleCollect(c.p, params, large, his)
			}

			opts.Rng = rand.New(rand.NewSource(seed))
			built, err := Build(c.g, c.p, opts)
			if err != nil {
				t.Fatalf("%s: Build: %v", name, err)
			}
			if next, want := opts.Rng.Int63(), rand.New(rand.NewSource(seed)).Int63(); next != want {
				t.Errorf("%s: Build moved the Rng: next draw %d, want %d", name, next, want)
			}
			seeded, err := BuildSeeded(c.g, c.p, opts, seed)
			if err != nil {
				t.Fatalf("%s: BuildSeeded: %v", name, err)
			}
			for _, run := range []struct {
				name      string
				got, want *Shortcuts
			}{
				{"Build", built, oracle(func(idx []int32, hit func(int32, graph.EdgeID)) {
					sampleHits(c.g, c.p, idx, len(large), 1, params.Reps, rand.New(rand.NewSource(seed)), hit)
				})},
				{"BuildSeeded", seeded, oracle(func(idx []int32, hit func(int32, graph.EdgeID)) {
					oracleSampleHits(c.g, c.p, idx, len(large), 1, params.Reps, seed, hit)
				})},
			} {
				if !reflect.DeepEqual(run.got, run.want) {
					t.Fatalf("%s: %s differs from Step 1 plus the sampler at p = 1", name, run.name)
				}
				owner := make(map[*graph.EdgeID]int)
				for i, h := range run.got.H {
					if !isLarge[i] {
						if h != nil {
							t.Errorf("%s: %s gave small part %d a non-nil list", name, run.name, i)
						}
						continue
					}
					if j, shared := owner[&h[0]]; shared {
						t.Errorf("%s: %s: parts %d and %d share one list", name, run.name, j, i)
					}
					owner[&h[0]] = i
				}
			}
		}
	}
}
