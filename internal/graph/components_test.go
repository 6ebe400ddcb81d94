package graph

import (
	"math/rand"
	"testing"
)

func TestIsConnected(t *testing.T) {
	conn := mustBuild(t, 4, pathEdges(4))
	if !IsConnected(conn) {
		t.Error("path should be connected")
	}
	disc := mustBuild(t, 4, [][2]NodeID{{0, 1}})
	if IsConnected(disc) {
		t.Error("graph with isolated nodes should not be connected")
	}
}

func TestIsNodeSetConnected(t *testing.T) {
	g := mustBuild(t, 6, pathEdges(6))
	if !IsNodeSetConnected(g, []NodeID{1, 2, 3}) {
		t.Error("contiguous path segment should be connected")
	}
	if IsNodeSetConnected(g, []NodeID{0, 2}) {
		t.Error("{0,2} is not connected in the induced subgraph")
	}
	if !IsNodeSetConnected(g, nil) {
		t.Error("empty set should be connected by convention")
	}
	single := []NodeID{4}
	if !IsNodeSetConnected(g, single) {
		t.Error("singleton should be connected")
	}
	if allocs := testing.AllocsPerRun(100, func() { IsNodeSetConnected(g, single) }); allocs != 0 {
		t.Errorf("singleton check allocates %v times, want 0", allocs)
	}
	if !IsNodeSetConnected(g, []NodeID{2, 1, 2, 3}) {
		t.Error("a node listed twice should count once")
	}
	if IsNodeSetConnected(g, []NodeID{1, 2, 4, 5}) {
		t.Error("{1,2} and {4,5} are joined only through non-member 3")
	}
}

// isNodeSetConnectedOracle is IsNodeSetConnected as it was before the
// member-only search: a FilteredBFS from the first node over arcs into
// members, then a count of the listed nodes it reached.
func isNodeSetConnectedOracle(g *Graph, nodes []NodeID) bool {
	if len(nodes) == 0 {
		return true
	}
	member := NewBitset(g.NumNodes())
	for _, v := range nodes {
		member.Set(v)
	}
	res := FilteredBFS(g, nodes[0], func(_ int32, _, v NodeID, _ EdgeID) bool {
		return member.Has(v)
	})
	reached := 0
	for _, v := range nodes {
		if res.Dist[v] != Unreached {
			reached++
		}
	}
	return reached == len(nodes)
}

// TestIsNodeSetConnectedMatchesOracle compares IsNodeSetConnected with the
// oracle on random sparse graphs over three kinds of set: prefixes of a BFS
// order (connected), random subsets (mostly disconnected), and the
// neighbours of one node without that node (often joined only through it).
// Every other set repeats one of its nodes.
func TestIsNodeSetConnectedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var connected, split, viaNonMember, dups int
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(i)), NodeID(i))
		}
		for i := 0; i < n/4; i++ {
			b.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var set []NodeID
		kind := trial % 3
		switch kind {
		case 0:
			order := BFS(g, NodeID(rng.Intn(n))).Reached
			set = append(set, order[:1+rng.Intn(len(order))]...)
		case 1:
			for _, v := range rng.Perm(n)[:1+rng.Intn(n)] {
				set = append(set, NodeID(v))
			}
		case 2:
			set = append(set, g.Neighbors(NodeID(rng.Intn(n)))...)
		}
		if trial%2 == 1 && len(set) > 0 {
			set = append(set, set[rng.Intn(len(set))])
			rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
			dups++
		}
		want := isNodeSetConnectedOracle(g, set)
		if got := IsNodeSetConnected(g, set); got != want {
			t.Fatalf("trial %d (n=%d, set %v): IsNodeSetConnected = %v, oracle %v", trial, n, set, got, want)
		}
		switch {
		case want:
			connected++
		case kind == 2:
			viaNonMember++
		default:
			split++
		}
	}
	if connected == 0 || split == 0 || viaNonMember == 0 || dups == 0 {
		t.Fatalf("coverage: %d connected, %d disconnected, %d joined only through a non-member, %d with duplicates",
			connected, split, viaNonMember, dups)
	}
}

func TestDiameterPathAndCycle(t *testing.T) {
	path := mustBuild(t, 9, pathEdges(9))
	if d := Diameter(path); d != 8 {
		t.Errorf("path diameter = %d, want 8", d)
	}
	cyc := NewBuilder(8)
	for i := 0; i < 8; i++ {
		if err := cyc.AddEdge(NodeID(i), NodeID((i+1)%8)); err != nil {
			t.Fatal(err)
		}
	}
	g := cyc.Build()
	if d := Diameter(g); d != 4 {
		t.Errorf("8-cycle diameter = %d, want 4", d)
	}
}

func TestDiameterBounds(t *testing.T) {
	g := mustBuild(t, 12, pathEdges(12))
	lo, hi := DiameterBounds(g)
	exact := Diameter(g)
	if lo > exact || hi < exact {
		t.Errorf("bounds [%d,%d] exclude exact diameter %d", lo, hi, exact)
	}
	// Double sweep is exact on paths.
	if lo != exact {
		t.Errorf("double-sweep lo = %d, want %d on a path", lo, exact)
	}
}

func TestEccentricity(t *testing.T) {
	g := mustBuild(t, 5, pathEdges(5))
	if ecc := Eccentricity(g, 2); ecc != 2 {
		t.Errorf("Eccentricity(center) = %d, want 2", ecc)
	}
	if ecc := Eccentricity(g, 0); ecc != 4 {
		t.Errorf("Eccentricity(end) = %d, want 4", ecc)
	}
}
