package graph

import (
	"math/rand"
	"testing"
)

func TestAugmentedViewInducedOnly(t *testing.T) {
	// Path 0-1-2-3-4-5; S = {1,2,3}; no extra edges. The view is the induced
	// path 1-2-3.
	g := mustBuild(t, 6, pathEdges(6))
	v := NewAugmentedView(g, []NodeID{1, 2, 3}, nil)
	if got := v.DiameterAmong([]NodeID{1, 2, 3}); got != 2 {
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
	v := NewAugmentedView(g, s, nil)
	if got := v.DiameterAmong(s); got != 4 {
		t.Errorf("cycle view diameter = %d, want 4", got)
	}
	// Now S is only the path interior endpoints {0,7}: disconnected without H.
	v2 := NewAugmentedView(g, []NodeID{0, 7}, nil)
	if got := v2.DiameterAmong([]NodeID{0, 7}); got != 1 {
		// {0,7} are adjacent via the chord inside G[S].
		t.Errorf("induced {0,7} diameter = %d, want 1", got)
	}
	// S = {0, 3}: not adjacent, disconnected in G[S]; adding path edges via H
	// reconnects them.
	v3 := NewAugmentedView(g, []NodeID{0, 3}, nil)
	if got := v3.DiameterAmong([]NodeID{0, 3}); got != -1 {
		t.Errorf("disconnected view diameter = %d, want -1", got)
	}
	e01, _ := g.FindEdge(0, 1)
	e12, _ := g.FindEdge(1, 2)
	e23, _ := g.FindEdge(2, 3)
	v4 := NewAugmentedView(g, []NodeID{0, 3}, []EdgeID{e01, e12, e23})
	if got := v4.DiameterAmong([]NodeID{0, 3}); got != 3 {
		t.Errorf("H-connected view diameter = %d, want 3", got)
	}
	_ = chord
}

func TestAugmentedViewNodes(t *testing.T) {
	g := mustBuild(t, 6, pathEdges(6))
	e34, _ := g.FindEdge(3, 4)
	v := NewAugmentedView(g, []NodeID{0, 1}, []EdgeID{e34})
	nodes := v.Nodes()
	want := []NodeID{0, 1, 3, 4}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
	if !v.HasNode(3) || v.HasNode(5) {
		t.Error("HasNode mismatch")
	}
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
		diam := v.DiameterAmong(s)
		ecc := v.EccentricityAmong(s[0], s)
		if ecc > diam || 2*ecc < diam {
			t.Fatalf("trial %d: ecc=%d diam=%d violates [ecc, 2ecc]", trial, ecc, diam)
		}
	}
}

// diameterAmongOracle is DiameterAmong's definition, one BFS per interest
// node: the largest distance between two interest nodes inside the view, or
// -1 if some pair is disconnected.
func diameterAmongOracle(v *AugmentedView, interest []NodeID) int32 {
	var diam int32
	for _, s := range interest {
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

// TestDiameterAmongMatchesOracle compares the bit-parallel kernel with the
// oracle on random graphs with random S and H, on interest sets on both
// sides of the 64-source chunk boundary.
func TestDiameterAmongMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{1, 63, 64, 65, 128, 129}
	hDensity := []float64{0, 0.3, 0.7, 1}
	var connected, split, viaH int
	for trial := 0; trial < 4*len(sizes)*len(hDensity); trial++ {
		size := sizes[trial%len(sizes)]
		hp := hDensity[trial/len(sizes)%len(hDensity)]
		n := size + 20 + rng.Intn(120)
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
		perm := rng.Perm(n)
		s := make([]NodeID, size)
		for i := range s {
			s[i] = NodeID(perm[i])
		}
		var h []EdgeID
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Float64() < hp {
				h = append(h, EdgeID(e))
			}
		}
		v := NewAugmentedView(g, s, h)
		want := diameterAmongOracle(v, s)
		if got := v.DiameterAmong(s); got != want {
			t.Fatalf("trial %d (n=%d |S|=%d |H|=%d): DiameterAmong = %d, oracle %d", trial, n, size, len(h), got, want)
		}
		switch {
		case want < 0:
			split++
		case diameterAmongOracle(NewAugmentedView(g, s, nil), s) < 0:
			viaH++
		default:
			connected++
		}
	}
	// The draw must cover disconnected views and interest nodes that only
	// H connects, or the comparison proves little.
	if connected == 0 || split == 0 || viaH == 0 {
		t.Fatalf("coverage: %d connected in G[S], %d connected only via H, %d disconnected", connected, viaH, split)
	}
}

// TestDiameterAmongKeepsEarlierChunkMax pins that the result is the maximum
// over all 64-source chunks: the diametral pair sits in the first chunk and
// every later chunk's sources are nearer the middle of the path, so a
// kernel that let a later chunk overwrite the maximum would answer less.
func TestDiameterAmongKeepsEarlierChunkMax(t *testing.T) {
	const n = 200
	g := mustBuild(t, n, pathEdges(n))
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	v := NewAugmentedView(g, all, nil)
	interest := []NodeID{0, n - 1}
	for u := NodeID(1); len(interest) < 129; u++ {
		interest = append(interest, u)
	}
	// Chunk 2 is nodes 63..126 (farthest interest node 136 hops away) and
	// chunk 3 is node 127 (farthest 127 hops away).
	if got := v.DiameterAmong(interest); got != n-1 {
		t.Fatalf("DiameterAmong = %d, want %d", got, n-1)
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
