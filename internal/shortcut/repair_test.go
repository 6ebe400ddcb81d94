package shortcut

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// repairFixture builds a connected random graph with a Voronoi partition and
// a seeded shortcut assignment.
type repairFixture struct {
	g     *graph.Graph
	w     graph.Weights
	parts [][]graph.NodeID
	p     *Partition
	s     *Shortcuts
	seed  uint64
	d     int
}

func makeRepairFixture(t *testing.T, n, nParts int, rngSeed int64) *repairFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(rngSeed))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, 6/float64(n), rng)
		if graph.IsConnected(g) {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, nParts, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(rngSeed)*0x9E3779B97F4A7C15 + 1
	s, err := BuildSeeded(g, p, Options{Diameter: 5, LogFactor: 0.3}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &repairFixture{g: g, w: w, parts: parts, p: p, s: s, seed: seed, d: 5}
}

// randomDelta draws a delta of roughly the requested size that keeps every
// part connected (deletions avoid intra-part bridges by only deleting edges
// whose removal keeps the endpoints' parts connected — checked after).
func randomDelta(t *testing.T, fx *repairFixture, size int, rng *rand.Rand) graph.Delta {
	t.Helper()
	var d graph.Delta
	n := fx.g.NumNodes()
	dead := map[graph.EdgeID]bool{}
	for tries := 0; len(d.Delete)+len(d.Insert) < size && tries < 50*size; tries++ {
		if rng.Intn(3) == 0 && fx.g.NumEdges() > 0 {
			e := graph.EdgeID(rng.Intn(fx.g.NumEdges()))
			if dead[e] {
				continue
			}
			dead[e] = true
			u, v := fx.g.EdgeEndpoints(e)
			d.Delete = append(d.Delete, [2]graph.NodeID{u, v})
			continue
		}
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || fx.g.HasEdge(u, v) {
			continue
		}
		if u > v {
			u, v = v, u
		}
		duplicate := false
		for _, de := range d.Insert {
			if de.U == u && de.V == v {
				duplicate = true
				break
			}
		}
		if duplicate {
			continue
		}
		d.Insert = append(d.Insert, graph.DeltaEdge{U: u, V: v, W: rng.Float64()})
	}
	return d
}

// recheckParts returns the parts that lost an intra-part edge under d.
func recheckParts(g *graph.Graph, p *Partition, d graph.Delta) []int {
	seen := map[int]bool{}
	var out []int
	for _, uv := range d.Delete {
		pu, pv := p.PartOf(uv[0]), p.PartOf(uv[1])
		if pu >= 0 && pu == pv && !seen[int(pu)] {
			seen[int(pu)] = true
			out = append(out, int(pu))
		}
	}
	return out
}

// TestRepairMatchesFromScratch is the core dynamic-graphs pin: for random
// delta streams, the part-local repair produces an assignment bit-identical
// to BuildSeeded from scratch on the post-delta graph.
func TestRepairMatchesFromScratch(t *testing.T) {
	for _, size := range []int{1, 8, 64} {
		fx := makeRepairFixture(t, 300, 8, int64(size)+100)
		rng := rand.New(rand.NewSource(int64(size) * 77))
		g, w, p, s := fx.g, fx.w, fx.p, fx.s
		for step := 0; step < 4; step++ {
			d := randomDelta(t, &repairFixture{g: g, w: w, p: p}, size, rng)
			g2, w2, rm, err := graph.ApplyDelta(g, w, d)
			if err != nil {
				t.Fatalf("size=%d step=%d: apply: %v", size, step, err)
			}
			p2, err := p.Rebind(g2, recheckParts(g, p, d))
			if err != nil {
				// A random delta can disconnect a part; skip this step.
				continue
			}
			rr, err := RepairDistributed(g2, p2, s, rm, rm.Inserted, RepairOptions{
				Seed:      fx.seed,
				Diameter:  fx.d,
				LogFactor: 0.3,
				Rng:       rand.New(rand.NewSource(int64(step + 1))),
			})
			if err != nil {
				t.Fatalf("size=%d step=%d: repair: %v", size, step, err)
			}
			want, err := BuildSeeded(g2, p2, Options{Diameter: fx.d, LogFactor: 0.3}, fx.seed)
			if err != nil {
				t.Fatalf("size=%d step=%d: from scratch: %v", size, step, err)
			}
			if len(rr.S.H) != len(want.H) {
				t.Fatalf("part count drift: %d vs %d", len(rr.S.H), len(want.H))
			}
			for pi := range want.H {
				if len(rr.S.H[pi]) != len(want.H[pi]) {
					t.Fatalf("size=%d step=%d part %d: |H| %d vs %d",
						size, step, pi, len(rr.S.H[pi]), len(want.H[pi]))
				}
				for j := range want.H[pi] {
					if rr.S.H[pi][j] != want.H[pi][j] {
						t.Fatalf("size=%d step=%d part %d: H[%d] = %d vs %d",
							size, step, pi, j, rr.S.H[pi][j], want.H[pi][j])
					}
				}
			}
			if rr.S.Params != want.Params {
				t.Fatalf("params drift: %+v vs %+v", rr.S.Params, want.Params)
			}
			g, w, p, s = g2, w2, p2, rr.S
		}
	}
}

// TestRepairTouchedScalesWithDelta pins the economics: a single-edge delta
// touches a bounded number of parts (its own endpoints' parts plus sampled
// hits), never all of them.
func TestRepairTouchedScalesWithDelta(t *testing.T) {
	fx := makeRepairFixture(t, 600, 12, 5)
	rng := rand.New(rand.NewSource(9))
	d := randomDelta(t, fx, 1, rng)
	g2, w2, rm, err := graph.ApplyDelta(fx.g, fx.w, d)
	if err != nil {
		t.Fatal(err)
	}
	_ = w2
	p2, err := fx.p.Rebind(g2, recheckParts(fx.g, fx.p, d))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RepairDistributed(g2, p2, fx.s, rm, rm.Inserted, RepairOptions{
		Seed: fx.seed, Diameter: fx.d, LogFactor: 0.3,
		Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Touched) == p2.NumParts() {
		t.Fatalf("single-edge delta touched every part (%d)", len(rr.Touched))
	}
}

// TestRepairRejectsDisconnectingDelete pins Rebind's connectivity recheck.
func TestRepairRejectsDisconnectingDelete(t *testing.T) {
	// A path graph partitioned into one part: deleting any edge disconnects
	// the part.
	g := gen.Path(6)
	all := []graph.NodeID{0, 1, 2, 3, 4, 5}
	p, err := NewPartition(g, [][]graph.NodeID{all})
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Delta{Delete: [][2]graph.NodeID{{2, 3}}}
	g2, _, _, err := graph.ApplyDelta(g, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rebind(g2, []int{0}); err == nil {
		t.Fatal("Rebind accepted a disconnected part")
	}
}

// TestBuildSeededDeterministic pins that equal seeds give identical
// assignments and different seeds (generically) different ones.
func TestBuildSeededDeterministic(t *testing.T) {
	fx := makeRepairFixture(t, 300, 8, 11)
	again, err := BuildSeeded(fx.g, fx.p, Options{Diameter: fx.d, LogFactor: 0.3}, fx.seed)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range fx.s.H {
		if len(fx.s.H[pi]) != len(again.H[pi]) {
			t.Fatalf("same seed, different assignment at part %d", pi)
		}
		for j := range again.H[pi] {
			if fx.s.H[pi][j] != again.H[pi][j] {
				t.Fatalf("same seed, different assignment at part %d edge %d", pi, j)
			}
		}
	}
	other, err := BuildSeeded(fx.g, fx.p, Options{Diameter: fx.d, LogFactor: 0.3}, fx.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for pi := range other.H {
		if len(other.H[pi]) != len(fx.s.H[pi]) {
			diff = true
			break
		}
		for j := range other.H[pi] {
			if other.H[pi][j] != fx.s.H[pi][j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical assignments (suspicious)")
	}
}
