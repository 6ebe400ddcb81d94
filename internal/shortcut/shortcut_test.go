package shortcut

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func mustPartition(t *testing.T, g *graph.Graph, parts [][]graph.NodeID) *Partition {
	t.Helper()
	p, err := NewPartition(g, parts)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	return p
}

func TestNewPartitionValidation(t *testing.T) {
	g := gen.Path(6)
	if _, err := NewPartition(g, [][]graph.NodeID{{}}); err == nil {
		t.Error("empty part accepted")
	}
	if _, err := NewPartition(g, [][]graph.NodeID{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping parts accepted")
	}
	if _, err := NewPartition(g, [][]graph.NodeID{{0, 2}}); err == nil {
		t.Error("disconnected part accepted")
	}
	if _, err := NewPartition(g, [][]graph.NodeID{{0, 99}}); err == nil {
		t.Error("out-of-range node accepted")
	}
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1, 2}, {4, 5}})
	if p.NumParts() != 2 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	if p.Part(0).Leader != 2 || p.Part(1).Leader != 5 {
		t.Errorf("leaders = %d,%d, want 2,5 (max IDs)", p.Part(0).Leader, p.Part(1).Leader)
	}
	if p.PartOf(3) != -1 || p.PartOf(1) != 0 || p.PartOf(4) != 1 {
		t.Error("PartOf mismatch")
	}
}

func TestLeaderOf(t *testing.T) {
	g := gen.Path(5)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1}, {3, 4}})
	lo := p.LeaderOf()
	want := []graph.NodeID{1, 1, 2, 4, 4}
	for v, l := range want {
		if lo[v] != l {
			t.Errorf("LeaderOf[%d] = %d, want %d", v, lo[v], l)
		}
	}
}

func TestLargePartsAndMaxDiameter(t *testing.T) {
	g := gen.Path(10)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1, 2, 3, 4}, {5, 6}, {8, 9}})
	large := p.LargeParts(2)
	if len(large) != 1 || large[0] != 0 {
		t.Errorf("LargeParts(2) = %v, want [0]", large)
	}
	if d := p.MaxPartDiameter(); d != 4 {
		t.Errorf("MaxPartDiameter = %d, want 4", d)
	}
}

func TestTrivialQuality(t *testing.T) {
	g := gen.Path(12)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}})
	s := Trivial(p)
	q, err := s.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Congestion != 1 {
		t.Errorf("trivial congestion = %d, want 1", q.Congestion)
	}
	if q.DilationHi != 3 || !q.Exact {
		t.Errorf("trivial dilation = %v, want exact 3", q)
	}
}

func TestCongestionCountsInducedAndShortcutOnce(t *testing.T) {
	// Path 0-1-2-3. Part {0,1}. H contains edge {0,1} (also induced) and
	// {2,3}. Edge {0,1} must count once for the part.
	g := gen.Path(4)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1}})
	e01, _ := g.FindEdge(0, 1)
	e23, _ := g.FindEdge(2, 3)
	s := &Shortcuts{P: p, H: [][]graph.EdgeID{{e01, e23}}}
	if c := s.Congestion(); c != 1 {
		t.Errorf("congestion = %d, want 1", c)
	}
	hist := s.CongestionProfile()
	// Edges {0,1} and {2,3} have congestion 1; edge {1,2} has 0.
	if hist[0] != 1 || hist[1] != 2 {
		t.Errorf("profile = %v, want [1 2]", hist)
	}
}

func TestDilationApproxCertified(t *testing.T) {
	g := gen.Path(20)
	nodes := make([]graph.NodeID, 20)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	p := mustPartition(t, g, [][]graph.NodeID{nodes})
	s := Trivial(p)
	exact, err := s.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := s.Dilation(5) // force approximation (part has 20 > 5 nodes)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Exact {
		t.Error("expected approximate result")
	}
	if approx.DilationLo > exact.DilationHi || approx.DilationHi < exact.DilationHi {
		t.Errorf("approx [%d,%d] does not bracket exact %d", approx.DilationLo, approx.DilationHi, exact.DilationHi)
	}
}

func TestDeriveParams(t *testing.T) {
	p := DeriveParams(10000, 3, 0, 1)
	if p.Reps != 3 {
		t.Errorf("Reps = %d, want 3", p.Reps)
	}
	if p.KD < 9.9 || p.KD > 10.1 {
		t.Errorf("KD = %v, want ~10", p.KD)
	}
	if p.N != 1000 {
		t.Errorf("N = %d, want 1000", p.N)
	}
	if p.P <= 0 || p.P > 1 {
		t.Errorf("P = %v out of (0,1]", p.P)
	}
	p2 := DeriveParams(100, 2, 5, 0.5)
	if p2.KD != 1 || p2.Reps != 5 || p2.LogFactor != 0.5 {
		t.Errorf("params = %+v", p2)
	}
}

func TestBuildRequiresRng(t *testing.T) {
	g := gen.Path(4)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1}})
	if _, err := Build(g, p, Options{}); err == nil {
		t.Error("Build without Rng accepted")
	}
}

func TestBuildStep1AlwaysIncluded(t *testing.T) {
	// Star with a large part: all incident edges of part nodes must be in H.
	g := gen.Star(30)
	nodes := make([]graph.NodeID, 0, 29)
	for v := 1; v < 15; v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	nodes = append(nodes, 0) // hub, to make the part connected
	p := mustPartition(t, g, [][]graph.NodeID{nodes})
	rng := rand.New(rand.NewSource(1))
	s, err := Build(g, p, Options{Diameter: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.LargeParts(int(s.Params.KD))) != 1 {
		t.Fatal("part should be large")
	}
	inH := graph.NewBitset(g.NumEdges())
	for _, e := range s.H[0] {
		inH.Set(e)
	}
	// The hub is in the part, so *every* star edge is incident to a part
	// node and must appear in H by Step 1.
	for e := 0; e < g.NumEdges(); e++ {
		if !inH.Has(graph.EdgeID(e)) {
			t.Errorf("edge %d missing from H despite Step 1", e)
		}
	}
}

func TestBuildSmallPartsGetNoShortcut(t *testing.T) {
	g := gen.Path(100)
	// Tiny parts, all well under kD.
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1}, {50, 51}})
	rng := rand.New(rand.NewSource(2))
	s, err := Build(g, p, Options{Diameter: 99, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.H[0]) != 0 || len(s.H[1]) != 0 {
		t.Errorf("small parts received shortcuts: %d, %d edges", len(s.H[0]), len(s.H[1]))
	}
}

func TestBuildDilationImprovesOnHardInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hi, err := gen.NewHardInstance(2000, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)
	before := p.MaxPartDiameter()

	s, err := Build(hi.G, p, Options{Diameter: 4, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.DilationHi >= before {
		t.Errorf("dilation %d did not improve on trivial %d", q.DilationHi, before)
	}
	// Theory: dilation = O(kD log n). Allow a generous constant.
	if float64(q.DilationHi) > 20*s.Params.KD {
		t.Errorf("dilation %d far above O(kD)=O(%v)", q.DilationHi, s.Params.KD)
	}
	if q.Congestion < 1 {
		t.Error("congestion should be at least 1")
	}
}

func TestBuildDeterministicGivenSeed(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	hiA, err := gen.NewHardInstance(800, 4, 0, 0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hiA.G, hiA.Paths)
	s1, err := Build(hiA.G, p, Options{Diameter: 4, Rng: rngA})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(hiA.G, p, Options{Diameter: 4, Rng: rngB})
	if err != nil {
		t.Fatal(err)
	}
	if s1.TotalShortcutEdges() != s2.TotalShortcutEdges() {
		t.Error("same seed produced different shortcut sizes")
	}
	for i := range s1.H {
		if len(s1.H[i]) != len(s2.H[i]) {
			t.Fatalf("part %d: %d vs %d edges", i, len(s1.H[i]), len(s2.H[i]))
		}
		for j := range s1.H[i] {
			if s1.H[i][j] != s2.H[i][j] {
				t.Fatalf("part %d edge %d differs", i, j)
			}
		}
	}
}

func TestBuildCongestionWithinChernoffBound(t *testing.T) {
	// E3 shape at test scale: max congestion should be O(Reps·kD·log n).
	rng := rand.New(rand.NewSource(4))
	hi, err := gen.NewHardInstance(1500, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)
	s, err := Build(hi.G, p, Options{Diameter: 4, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Congestion()
	n := float64(hi.G.NumNodes())
	bound := float64(s.Params.Reps) * s.Params.KD * logOf(n) * 4
	if float64(c) > bound+4 {
		t.Errorf("congestion %d above Chernoff-shaped bound %f", c, bound)
	}
}

func logOf(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}

func TestGhaffariHaeuplerBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ClusterChain(500, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := gen.VoronoiParts(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, g, parts)
	s := GhaffariHaeupler(p, 0)
	q, err := s.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	// Quality must be O(√n + D): congestion ≤ √n+1, dilation ≤ max(2·depth, √n).
	sqrtN := 23.0 // ceil(sqrt(500)) = 23
	if float64(q.Congestion) > sqrtN+1 {
		t.Errorf("GH congestion %d > √n+1", q.Congestion)
	}
	if float64(q.DilationHi) > 2*sqrtN+8 {
		t.Errorf("GH dilation %d too large", q.DilationHi)
	}
}

func TestQualityStringAndSum(t *testing.T) {
	q := Quality{Congestion: 3, DilationLo: 5, DilationHi: 5, Exact: true}
	if q.Sum() != 8 {
		t.Errorf("Sum = %d", q.Sum())
	}
	if q.String() != "c=3 d=5 (exact)" {
		t.Errorf("String = %q", q.String())
	}
	q2 := Quality{Congestion: 3, DilationLo: 5, DilationHi: 10}
	if q2.String() != "c=3 d∈[5,10]" {
		t.Errorf("String = %q", q2.String())
	}
}
