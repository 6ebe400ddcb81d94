package graph

import (
	"math/rand"
	"strconv"
	"testing"
)

func TestAugmentedViewInducedOnly(t *testing.T) {
	// Path 0-1-2-3-4-5; S = {1,2,3}; no extra edges. The view is the induced
	// path 1-2-3.
	g := mustBuild(t, 6, pathEdges(6))
	v := NewAugmentedView(g, []NodeID{1, 2, 3}, nil)
	if got := diameterOf(t, g, []NodeID{1, 2, 3}, nil); got != 2 {
		t.Errorf("diameter = %d, want 2", got)
	}
	res := v.BFS(1)
	if res.Dist[0] != Unreached || res.Dist[4] != Unreached {
		t.Error("view leaks outside S")
	}
}

func TestAugmentedViewShortcutEdge(t *testing.T) {
	// Path 0..7 plus chord {0,7}. S = all nodes of the path; H = {chord}.
	b := NewBuilder(8)
	for _, e := range pathEdges(8) {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	chord, _ := g.FindEdge(0, 7)
	s := make([]NodeID, 8)
	for i := range s {
		s[i] = NodeID(i)
	}
	// Without the chord in H but with all of S: the chord is still usable
	// because both endpoints are in S (it's part of G[S]).
	if got := diameterOf(t, g, s, nil); got != 4 {
		t.Errorf("cycle view diameter = %d, want 4", got)
	}
	// Now S is only the path interior endpoints {0,7}: disconnected without H.
	if got := diameterOf(t, g, []NodeID{0, 7}, nil); got != 1 {
		// {0,7} are adjacent via the chord inside G[S].
		t.Errorf("induced {0,7} diameter = %d, want 1", got)
	}
	// S = {0, 3}: not adjacent, disconnected in G[S]; adding path edges via H
	// reconnects them.
	if got := diameterOf(t, g, []NodeID{0, 3}, nil); got != -1 {
		t.Errorf("disconnected view diameter = %d, want -1", got)
	}
	e01, _ := g.FindEdge(0, 1)
	e12, _ := g.FindEdge(1, 2)
	e23, _ := g.FindEdge(2, 3)
	if got := diameterOf(t, g, []NodeID{0, 3}, []EdgeID{e01, e12, e23}); got != 3 {
		t.Errorf("H-connected view diameter = %d, want 3", got)
	}
	_ = chord
}

func TestEccentricityAmongBracketsDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 5
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(i)), NodeID(i))
		}
		for i := 0; i < n/2; i++ {
			b.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		s := make([]NodeID, n)
		for i := range s {
			s[i] = NodeID(i)
		}
		v := NewAugmentedView(g, s, nil)
		diam := diameterOf(t, g, s, nil)
		ecc := v.EccentricityAmong(s[0], s)
		if ecc > diam || 2*ecc < diam {
			t.Fatalf("trial %d: ecc=%d diam=%d violates [ecc, 2ecc]", trial, ecc, diam)
		}
	}
}

// diameterOf measures one set alone through DiametersAmong.
func diameterOf(t *testing.T, g *Graph, s []NodeID, h []EdgeID) int32 {
	t.Helper()
	d, err := DiametersAmong(nil, g, []AmongSet{{S: s, H: h}})
	if err != nil {
		t.Fatal(err)
	}
	return d[0]
}

// diameterAmongOracle is DiametersAmong's definition for one set, one BFS
// per source: the largest distance from a source to an interest node inside
// the view, or -1 if some such pair is disconnected.
func diameterAmongOracle(v *AugmentedView, sources, interest []NodeID) int32 {
	var diam int32
	for _, s := range sources {
		res := v.BFS(s)
		for _, t := range interest {
			d := res.Dist[t]
			if d == Unreached {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// srcOf returns the nodes set's distances are measured from: Src, or all
// of S when Src is nil.
func srcOf(set AmongSet) []NodeID {
	if set.Src == nil {
		return set.S
	}
	return set.Src
}

// checkAgainstOracle runs DiametersAmong on sets and compares every set's
// result with the oracle on its own view, from its own sources.
func checkAgainstOracle(t *testing.T, tag string, g *Graph, sets []AmongSet) []int32 {
	t.Helper()
	got, err := DiametersAmong(nil, g, sets)
	if err != nil {
		t.Fatal(err)
	}
	for j, set := range sets {
		if want := diameterAmongOracle(NewAugmentedView(g, set.S, set.H), srcOf(set), set.S); got[j] != want {
			t.Fatalf("%s: set %d of %d (|S|=%d |Src|=%d |H|=%d, m=%d): DiametersAmong = %d, oracle %d",
				tag, j, len(sets), len(set.S), len(set.Src), len(set.H), g.NumEdges(), got[j], want)
		}
	}
	return got
}

// wordsOf returns the range of 64-source words each set's sources occupy
// when DiametersAmong concatenates the sets' sources in order ([lo, hi], or
// lo > hi for a set without sources).
func wordsOf(sets []AmongSet) [][2]int {
	out := make([][2]int, len(sets))
	at := 0
	for j, set := range sets {
		k := len(srcOf(set))
		out[j] = [2]int{at / 64, (at+k)/64 - 1}
		if (at+k)%64 != 0 {
			out[j][1]++
		}
		at += k
	}
	return out
}

// TestDiameterAmongMatchesOracle compares the packed kernel with the
// oracle, set by set, on random graphs carrying several vertex-disjoint
// sets per call. Set sizes straddle the 64-source word; each set's view is
// induced only (empty H), saturated (H = E) or sampled (a random H), so
// words mix the three admission rules, and disconnected sets share words
// with connected ones. Each set is measured from all of its nodes (Src
// nil), from one of them or from a random subset, so words also mix
// diameters with eccentricities, and subsets span words.
func TestDiameterAmongMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{1, 2, 7, 30, 63, 64, 65, 129}
	var connected, split, viaH, sharing, spanning, mixed, splitBesideConnected int
	var bySrc [3]int // sets by source kind
	var subsetSpanning, srcMixed, srcMatters int
	for trial := 0; trial < 120; trial++ {
		k := 1 + rng.Intn(5)
		total := 0
		setSizes := make([]int, k)
		for j := range setSizes {
			setSizes[j] = sizes[rng.Intn(len(sizes))]
			total += setSizes[j]
		}
		n := total + rng.Intn(120)
		// A random spanning tree plus chords: H drawn from it can route
		// between S nodes through nodes outside S.
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(i)), NodeID(i))
		}
		for i := 0; i < n/3; i++ {
			b.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		all := make([]EdgeID, g.NumEdges())
		for e := range all {
			all[e] = EdgeID(e)
		}
		perm := rng.Perm(n)
		sets := make([]AmongSet, k)
		kinds := make([]int, k)    // 0 empty H, 1 saturated, 2 sampled
		srcKinds := make([]int, k) // 0 all of S, 1 one node, 2 a subset
		at := 0
		for j := range sets {
			for _, v := range perm[at : at+setSizes[j]] {
				sets[j].S = append(sets[j].S, NodeID(v))
			}
			at += setSizes[j]
			switch kinds[j] = rng.Intn(3); kinds[j] {
			case 1:
				sets[j].H = all
			case 2:
				hp := []float64{0.3, 0.7, 0.95}[rng.Intn(3)]
				for e := range all {
					if rng.Float64() < hp {
						sets[j].H = append(sets[j].H, EdgeID(e))
					}
				}
			}
			switch srcKinds[j] = rng.Intn(3); srcKinds[j] {
			case 1:
				sets[j].Src = []NodeID{sets[j].S[rng.Intn(len(sets[j].S))]}
			case 2:
				sp := []float64{0.2, 0.5, 0.9}[rng.Intn(3)]
				for _, v := range sets[j].S {
					if rng.Float64() < sp {
						sets[j].Src = append(sets[j].Src, v)
					}
				}
				if sets[j].Src == nil {
					sets[j].Src = sets[j].S[len(sets[j].S)-1:]
				}
			}
		}
		got := checkAgainstOracle(t, "trial "+strconv.Itoa(trial), g, sets)

		words := wordsOf(sets)
		for j, set := range sets {
			switch {
			case got[j] < 0:
				split++
			case diameterAmongOracle(NewAugmentedView(g, set.S, nil), set.S, set.S) < 0:
				viaH++
			default:
				connected++
			}
			if words[j][1] > words[j][0] {
				spanning++
				if srcKinds[j] == 2 {
					subsetSpanning++
				}
			}
			bySrc[srcKinds[j]]++
			if set.Src != nil && got[j] != diameterAmongOracle(NewAugmentedView(g, set.S, set.H), set.S, set.S) {
				srcMatters++
			}
			kindsInWord := map[int]bool{}
			shares, besideConnected, besideOtherSrc := false, false, false
			for i := range sets {
				if words[i][0] <= words[j][1] && words[j][0] <= words[i][1] {
					kindsInWord[kinds[i]] = true
					if i != j {
						shares = true
						besideConnected = besideConnected || got[i] >= 0
						besideOtherSrc = besideOtherSrc || srcKinds[i] != srcKinds[j]
					}
				}
			}
			if shares {
				sharing++
			}
			if besideOtherSrc {
				srcMixed++
			}
			if len(kindsInWord) == 3 {
				mixed++
			}
			if got[j] < 0 && besideConnected {
				splitBesideConnected++
			}
		}
	}
	// The draw must cover every case the packing introduces, or the
	// comparison proves little.
	t.Logf("sets: %d connected in G[S], %d only via H, %d disconnected; %d share a word, %d span words, %d sit in a word mixing all three views, %d disconnected beside a connected set",
		connected, viaH, split, sharing, spanning, mixed, splitBesideConnected)
	t.Logf("sources: %d sets from one node, %d from a subset (%d spanning words), %d share a word with a set measured otherwise, %d read less than their diameter",
		bySrc[1], bySrc[2], subsetSpanning, srcMixed, srcMatters)
	if connected == 0 || split == 0 || viaH == 0 || sharing == 0 || spanning == 0 || mixed == 0 || splitBesideConnected == 0 ||
		bySrc[1] == 0 || bySrc[2] == 0 || subsetSpanning == 0 || srcMixed == 0 || srcMatters == 0 {
		t.Fatal("coverage incomplete")
	}
}

// TestDiameterAmongPackedCases pins the packing's cases on hand-built
// sets: two paths sharing a word, a 65-node path spanning two words, a
// disconnected set whose word neighbour stays connected, and one word
// holding an induced, a saturated and a sampled view.
func TestDiameterAmongPackedCases(t *testing.T) {
	// Components: a 10-path (0..9), a 65-path (10..74), a 20-path (75..94),
	// two isolated nodes (95, 96) and a 6-cycle (97..102).
	var edges [][2]NodeID
	path := func(lo, hi NodeID) {
		for u := lo; u < hi; u++ {
			edges = append(edges, [2]NodeID{u, u + 1})
		}
	}
	path(0, 9)
	path(10, 74)
	path(75, 94)
	path(97, 102)
	edges = append(edges, [2]NodeID{97, 102})
	g := mustBuild(t, 103, edges)
	nodes := func(lo, hi NodeID) []NodeID {
		var out []NodeID
		for u := lo; u <= hi; u++ {
			out = append(out, u)
		}
		return out
	}
	edgesOf := func(pairs ...[2]NodeID) []EdgeID {
		var out []EdgeID
		for _, p := range pairs {
			e, ok := g.FindEdge(p[0], p[1])
			if !ok {
				t.Fatalf("no edge %v", p)
			}
			out = append(out, e)
		}
		return out
	}
	all := make([]EdgeID, g.NumEdges())
	for e := range all {
		all[e] = EdgeID(e)
	}
	sets := []AmongSet{
		{S: nodes(0, 9)},              // word 0: induced path, 9
		{S: nodes(10, 74)},            // words 0–1: 65-node path, 64
		{S: []NodeID{95, 96}},         // word 1: no edge between them, -1
		{S: []NodeID{75, 94}, H: all}, // word 1: saturated, the 20-path, 19
		{S: []NodeID{97, 100}, H: edgesOf([2]NodeID{97, 102}, [2]NodeID{102, 101}, [2]NodeID{101, 100})}, // word 1: sampled, 3
		{S: nodes(76, 80)}, // word 1: induced path, 4
	}
	want := []int32{9, 64, -1, 19, 3, 4}
	got := checkAgainstOracle(t, "packed", g, sets)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("set %d: DiametersAmong = %d, want %d", j, got[j], want[j])
		}
	}
	if w := wordsOf(sets); w[0] != [2]int{0, 0} || w[1] != [2]int{0, 1} || w[5] != [2]int{1, 1} {
		t.Fatalf("word layout %v, want sets 0–1 sharing word 0 and set 1 spanning words 0–1", w)
	}
}

// TestDiameterAmongKeepsEarlierChunkMax pins that a set's result is the
// maximum over all the 64-source words it spans: each set's diametral pair
// sits in its first word and every later word's sources are nearer the
// middle of its path, so a kernel that let a later word overwrite the
// maximum would answer less. The three 200-node paths carry an induced, a
// saturated and a sampled view, packed into shared words.
func TestDiameterAmongKeepsEarlierChunkMax(t *testing.T) {
	const n = 200
	var edges [][2]NodeID
	for c := NodeID(0); c < 3; c++ {
		for _, e := range pathEdges(n) {
			edges = append(edges, [2]NodeID{c*n + e[0], c*n + e[1]})
		}
	}
	edges = append(edges, [2]NodeID{2*n + 100, 3 * n}) // a pendant off path C, outside every H
	g := mustBuild(t, 3*n+1, edges)
	all := make([]EdgeID, g.NumEdges())
	for e := range all {
		all[e] = EdgeID(e)
	}
	var pathC []EdgeID
	for _, e := range all {
		if u, v := g.EdgeEndpoints(e); u >= 2*n && v < 3*n {
			pathC = append(pathC, e)
		}
	}
	// Path A: every node, ends first. Paths B and C: both ends and the 127
	// nodes after the first end, joined only through H.
	interest := func(c NodeID, size int) []NodeID {
		out := []NodeID{c * n, c*n + n - 1}
		for u := c*n + 1; len(out) < size; u++ {
			out = append(out, u)
		}
		return out
	}
	sets := []AmongSet{
		{S: interest(0, n)},
		{S: interest(1, 129), H: all},
		{S: interest(2, 129), H: pathC},
	}
	got := checkAgainstOracle(t, "earlier word", g, sets)
	for j, d := range got {
		if d != n-1 {
			t.Fatalf("set %d: DiametersAmong = %d, want %d", j, d, n-1)
		}
	}
}

func TestWeightsValidate(t *testing.T) {
	g := mustBuild(t, 3, pathEdges(3))
	w := NewUnitWeights(g.NumEdges())
	if err := w.Validate(g); err != nil {
		t.Errorf("unit weights invalid: %v", err)
	}
	bad := Weights{1}
	if err := bad.Validate(g); err == nil {
		t.Error("length-mismatched weights validated")
	}
	neg := Weights{1, -2}
	if err := neg.Validate(g); err == nil {
		t.Error("negative weights validated")
	}
}

func TestUniformWeightsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewUniformWeights(1000, rng)
	for e, x := range w {
		if !(x > 0 && x <= 1) {
			t.Fatalf("weight[%d] = %v out of (0,1]", e, x)
		}
	}
	if w.Total([]EdgeID{0, 1, 2}) != w[0]+w[1]+w[2] {
		t.Error("Total mismatch")
	}
}
