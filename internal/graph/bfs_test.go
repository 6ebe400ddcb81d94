package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSPath(t *testing.T) {
	g := mustBuild(t, 6, pathEdges(6))
	res := BFS(g, 0)
	for v := 0; v < 6; v++ {
		if res.Dist[v] != int32(v) {
			t.Errorf("Dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	path := res.PathTo(5)
	if len(path) != 6 {
		t.Fatalf("PathTo(5) length = %d, want 6", len(path))
	}
	for i, v := range path {
		if v != NodeID(i) {
			t.Errorf("path[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := mustBuild(t, 4, [][2]NodeID{{0, 1}, {2, 3}})
	res := BFS(g, 0)
	if res.Dist[2] != Unreached || res.Dist[3] != Unreached {
		t.Error("nodes 2,3 should be unreached from 0")
	}
	if res.PathTo(3) != nil {
		t.Error("PathTo(3) should be nil")
	}
	if len(res.Reached) != 2 {
		t.Errorf("Reached = %d nodes, want 2", len(res.Reached))
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := mustBuild(t, 7, pathEdges(7))
	res := MultiSourceBFS(g, []NodeID{0, 6})
	want := []int32{0, 1, 2, 3, 2, 1, 0}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Errorf("Dist[%d] = %d, want %d", v, res.Dist[v], d)
		}
	}
}

func TestMultiSourceBFSDuplicateSources(t *testing.T) {
	g := mustBuild(t, 3, pathEdges(3))
	res := MultiSourceBFS(g, []NodeID{1, 1})
	if len(res.Reached) != 3 {
		t.Errorf("Reached = %d, want 3", len(res.Reached))
	}
	if res.Dist[1] != 0 {
		t.Errorf("Dist[1] = %d, want 0", res.Dist[1])
	}
}

func TestFilteredBFSBlocksArcs(t *testing.T) {
	// Cycle 0-1-2-3-0; block the edge {0,3} in both directions and the cycle
	// degenerates into the path 0-1-2-3.
	g := mustBuild(t, 4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	blocked, ok := g.FindEdge(0, 3)
	if !ok {
		t.Fatal("edge {0,3} missing")
	}
	res := FilteredBFS(g, 0, func(_ int32, _, _ NodeID, e EdgeID) bool {
		return e != blocked
	})
	if res.Dist[3] != 3 {
		t.Errorf("Dist[3] = %d, want 3 (edge blocked)", res.Dist[3])
	}
}

func TestBFSDistancesAreMetric(t *testing.T) {
	// Property: in any connected random graph, BFS distances obey
	// |d(u) - d(v)| <= 1 across every edge {u,v}.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(i)), NodeID(i)) // random spanning tree
		}
		for i := 0; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		res := BFS(g, NodeID(rng.Intn(n)))
		for e := 0; e < g.NumEdges(); e++ {
			u, v := g.EdgeEndpoints(EdgeID(e))
			du, dv := res.Dist[u], res.Dist[v]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBFSParentsFormTree(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(i)), NodeID(i))
		}
		g := b.Build()
		src := NodeID(rng.Intn(n))
		res := BFS(g, src)
		for v := 0; v < n; v++ {
			p := res.Parent[v]
			if NodeID(v) == src {
				if p != -1 {
					return false
				}
				continue
			}
			if p == -1 || res.Dist[v] != res.Dist[p]+1 || !g.HasEdge(NodeID(v), p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
