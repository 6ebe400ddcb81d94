package shortcut

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// TestCongestionProfileConsistency: the profile histogram's largest nonzero
// index must equal Congestion(), and the histogram must sum to m.
func TestCongestionProfileConsistency(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(60, 0.08, rng)
		parts, err := gen.VoronoiParts(g, 1+rng.Intn(8), rng)
		if err != nil {
			return true
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		s, err := Build(g, p, Options{Diameter: 3, LogFactor: 0.3, Rng: rng})
		if err != nil {
			return false
		}
		hist := s.CongestionProfile()
		total := 0
		for _, h := range hist {
			total += h
		}
		if total != g.NumEdges() {
			return false
		}
		top := len(hist) - 1
		for top > 0 && hist[top] == 0 {
			top--
		}
		return top == s.Congestion()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTrivialCongestionAtMostOne: with no shortcuts, an edge is in at most
// one induced subgraph (parts are disjoint).
func TestTrivialCongestionAtMostOne(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(40, 0.1, rng)
		parts, err := gen.VoronoiParts(g, 1+rng.Intn(10), rng)
		if err != nil {
			return true
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		return Trivial(p).Congestion() <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDilationNeverWorseThanTrivial: adding shortcut edges can only shrink
// distances inside the augmented subgraph.
func TestDilationNeverWorseThanTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		hi, err := gen.NewHardInstance(800, 4, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartition(hi.G, hi.Paths)
		if err != nil {
			t.Fatal(err)
		}
		trivial, err := Trivial(p).Dilation(0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(hi.G, p, Options{Diameter: 4, LogFactor: 0.3, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		q, err := s.Dilation(0)
		if err != nil {
			t.Fatal(err)
		}
		if q.DilationHi > trivial.DilationHi {
			t.Errorf("trial %d: dilation %d worse than trivial %d", trial, q.DilationHi, trivial.DilationHi)
		}
	}
}

// TestPartitionLeaderIsMember ensures leaders are always members of their
// own parts (max-ID convention).
func TestPartitionLeaderIsMember(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(50, 0.08, rng)
		parts, err := gen.VoronoiParts(g, 1+rng.Intn(7), rng)
		if err != nil {
			return true
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		for i := 0; i < p.NumParts(); i++ {
			part := p.Part(i)
			found := false
			for _, v := range part.Nodes {
				if v > part.Leader {
					return false // leader not maximal
				}
				if v == part.Leader {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// partDilationOracle is one part's dilation by definition: a BFS from every
// part node over the arcs of the augmented view G[Si] ∪ Hi, and the largest
// distance to another part node (-1 if one is unreachable).
func partDilationOracle(s *Shortcuts, i int) int32 {
	g := s.P.Graph()
	part := s.P.Part(i)
	view := graph.NewAugmentedView(g, part.Nodes, s.h(i))
	dist := make([]int32, g.NumNodes())
	queue := make([]graph.NodeID, 0, g.NumNodes())
	var diam int32
	for _, src := range part.Nodes {
		for v := range dist {
			dist[v] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			lo, hi := g.ArcRange(u)
			for a := lo; a < hi; a++ {
				if w := g.ArcTarget(a); dist[w] < 0 && view.UsableArc(u, w, g.ArcEdge(a)) {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		for _, v := range part.Nodes {
			if dist[v] < 0 {
				return -1
			}
			diam = max(diam, dist[v])
		}
	}
	return diam
}

// TestPartDilationsMatchOracle pins PartDilations, whose exact parts share
// packed 64-source words, part by part against the oracle: on servebench's
// ER shape at n=2000 (sampled, P < 1), on a saturated build of that shape
// at n=1000 (LogFactor 100), on hard instances of diameter 3 and 4, and on
// a ClusterChain whose largest parts sit above the cutoff and report the
// [ecc, 2·ecc] bracket of their leader's BFS.
func TestPartDilationsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	er := func(n int) (*graph.Graph, [][]graph.NodeID) {
		for {
			g := gen.ErdosRenyi(n, 12/float64(n), rng)
			if !graph.IsConnected(g) {
				continue
			}
			parts, err := gen.VoronoiParts(g, min(64, n/64), rng)
			if err != nil {
				t.Fatal(err)
			}
			return g, parts
		}
	}
	type fixture struct {
		name     string
		g        *graph.Graph
		parts    [][]graph.NodeID
		d        int
		lf       float64
		cutoff   int
		sampling string // "sampled" (0 < P < 1) or "saturated" (P = 1)
	}
	// servebench's n=2000 build runs at its double-sweep diameter of 4,
	// where P ≈ 0.60.
	erG, erParts := er(2000)
	satG, satParts := er(1000)
	var fixtures []fixture
	fixtures = append(fixtures,
		fixture{"er-2000", erG, erParts, 4, 1, 3000, "sampled"},
		fixture{"er-1000-saturated", satG, satParts, 4, 100, 3000, "saturated"},
	)
	for _, d := range []int{3, 4} {
		hi, err := gen.NewHardInstance(1500, d, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("hard-D%d", d), hi.G, hi.Paths, d, 0.3, 3000, "sampled"})
	}
	cc, err := gen.ClusterChain(1200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ccParts, err := gen.VoronoiParts(cc, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"clusterchain", cc, ccParts, 4, 0.3, 150, ""})

	for _, fx := range fixtures {
		p, err := NewPartition(fx.g, fx.parts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(fx.g, p, Options{Diameter: fx.d, LogFactor: fx.lf, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		switch P := s.Params.P; {
		case fx.sampling == "sampled" && (P <= 0 || P >= 1), fx.sampling == "saturated" && P < 1:
			t.Fatalf("%s: sampling probability %v (D=%d), want %s", fx.name, P, fx.d, fx.sampling)
		}
		got, err := s.PartDilations(context.Background(), fx.cutoff)
		if err != nil {
			t.Fatal(err)
		}
		brackets := 0
		for i, q := range got {
			want := partDilationOracle(s, i)
			if len(p.Part(i).Nodes) <= fx.cutoff {
				if !q.Exact || q.DilationLo != want || q.DilationHi != want {
					t.Fatalf("%s: part %d (%d nodes, |H|=%d): %v, oracle %d", fx.name, i, len(p.Part(i).Nodes), len(s.H[i]), q, want)
				}
				continue
			}
			brackets++
			part := p.Part(i)
			ecc := graph.NewAugmentedView(fx.g, part.Nodes, s.h(i)).EccentricityAmong(part.Leader, part.Nodes)
			if q.Exact || q.DilationLo != ecc || q.DilationHi != 2*ecc || want < ecc || want > 2*ecc {
				t.Fatalf("%s: part %d above the cutoff: %v, leader ecc %d, oracle %d", fx.name, i, q, ecc, want)
			}
		}
		if (fx.cutoff < 3000) != (brackets > 0) {
			t.Fatalf("%s: %d parts above the cutoff %d", fx.name, brackets, fx.cutoff)
		}
	}
}

// TestCongestionMatchesBruteForce checks Congestion and CongestionProfile
// against a count over every (edge, part) pair, on a partition that mixes
// saturated parts (a list of all m edges), sampled ones, small ones without
// a list, and nodes in no part.
func TestCongestionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ran := 0
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(80, 0.08, rng)
		parts, err := gen.VoronoiParts(g, 10, rng)
		if err != nil {
			continue // disconnected
		}
		ran++
		parts = parts[:7] // the last three parts' nodes lie in no part
		p := mustPartition(t, g, parts)
		m := g.NumEdges()
		all := make([]graph.EdgeID, m)
		for e := range all {
			all[e] = graph.EdgeID(e)
		}
		H := make([][]graph.EdgeID, p.NumParts())
		for i := range H {
			switch i % 3 {
			case 0: // saturated, each part its own list
				H[i] = append([]graph.EdgeID(nil), all...)
			case 1: // sampled
				for e := range all {
					if rng.Intn(3) == 0 {
						H[i] = append(H[i], graph.EdgeID(e))
					}
				}
			} // case 2: small, no list
		}
		s := &Shortcuts{P: p, H: H}
		want := make([]int, m)
		wantMax := 0
		for e := graph.EdgeID(0); int(e) < m; e++ {
			u, v := g.EdgeEndpoints(e)
			for i := range H {
				in := p.PartOf(u) == int32(i) && p.PartOf(v) == int32(i)
				for _, he := range H[i] {
					in = in || he == e
				}
				if in {
					want[e]++
				}
			}
			wantMax = max(wantMax, want[e])
		}
		if got := s.Congestion(); got != wantMax {
			t.Fatalf("trial %d: Congestion %d, brute force %d", trial, got, wantMax)
		}
		hist := make([]int, wantMax+1)
		for _, c := range want {
			hist[c]++
		}
		if got := s.CongestionProfile(); fmt.Sprint(got) != fmt.Sprint(hist) {
			t.Fatalf("trial %d: CongestionProfile %v, brute force %v", trial, got, hist)
		}
	}
	if ran < 5 {
		t.Fatalf("%d of 10 graphs connected, want at least 5", ran)
	}
}

// TestDilationBracketsMatchEccentricity brackets every part of several
// builds (cutoff 1), so one call's scratch serves many parts in turn, and
// checks each bracket against the leader's eccentricity in a fresh
// augmented view.
func TestDilationBracketsMatchEccentricity(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, d := range []int{3, 4} {
		hi, err := gen.NewHardInstance(1200, d, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := mustPartition(t, hi.G, hi.Paths)
		for _, lf := range []float64{0.05, 1} {
			s, err := Build(hi.G, p, Options{Diameter: d, LogFactor: lf, Rng: rng})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.PartDilations(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range got {
				part := p.Part(i)
				if len(part.Nodes) <= 1 {
					continue
				}
				ecc := graph.NewAugmentedView(hi.G, part.Nodes, s.h(i)).EccentricityAmong(part.Leader, part.Nodes)
				if q.Exact || q.DilationLo != ecc || q.DilationHi != 2*ecc {
					t.Fatalf("D=%d lf=%g part %d: %v, leader eccentricity %d", d, lf, i, q, ecc)
				}
			}
		}
	}
}

// TestDilationsOfRejectsRepeatedPart pins that DilationsOf refuses a list
// naming a part twice, as it refuses one out of range: the repeated sets
// would overlap in the packed pass, where each node counts only the bits of
// the one set that owns it.
func TestDilationsOfRejectsRepeatedPart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi(300, 0.03, rng)
	parts, err := gen.VoronoiParts(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, g, parts)
	s, err := Build(g, p, Options{Diameter: 4, LogFactor: 0.3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []int{0, 1} { // exact, then bracketed
		for _, list := range [][]int{{2, 2}, {2, 0, 2}, {0, 1, 2, 3, 4, 5, 1}, {2, 6}, {-1}} {
			if q, err := s.DilationsOf(nil, list, cutoff); reproerr.KindOf(err) != reproerr.KindInvalidInput {
				t.Fatalf("cutoff %d: DilationsOf(%v) = %v, %v; want a KindInvalidInput error", cutoff, list, q, err)
			}
		}
		q, err := s.DilationsOf(nil, []int{2, 0}, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range []int{2, 0} {
			d := partDilationOracle(s, i)
			exact := q[k].Exact && q[k].DilationLo == d && q[k].DilationHi == d
			bracket := !q[k].Exact && q[k].DilationLo <= d && d <= q[k].DilationHi
			if cutoff == 0 && !exact || cutoff == 1 && !bracket {
				t.Fatalf("cutoff %d: part %d: %v, oracle %d", cutoff, i, q[k], d)
			}
		}
	}
}
