package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func deltaFixture(t *testing.T) (*Graph, Weights) {
	t.Helper()
	g, err := FromEdges(6, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	w := make(Weights, g.NumEdges())
	for e := range w {
		w[e] = float64(e) + 0.5
	}
	return g, w
}

func TestApplyDeltaMatchesFromScratch(t *testing.T) {
	g, w := deltaFixture(t)
	d := Delta{
		Delete: [][2]NodeID{{2, 3}, {5, 0}}, // endpoints in any order
		Insert: []DeltaEdge{{U: 0, V: 3, W: 9.25}, {U: 5, V: 2, W: 1.75}},
	}
	g2, w2, rm, err := ApplyDelta(g, w, d)
	if err != nil {
		t.Fatal(err)
	}

	// From-scratch reference on the post-delta edge set.
	b := NewBuilder(6)
	wantW := map[[2]NodeID]float64{}
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(EdgeID(e))
		if (u == 2 && v == 3) || (u == 0 && v == 5) {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		wantW[[2]NodeID{u, v}] = w[e]
	}
	for _, de := range d.Insert {
		if err := b.AddEdge(de.U, de.V); err != nil {
			t.Fatal(err)
		}
		u, v := de.U, de.V
		if u > v {
			u, v = v, u
		}
		wantW[[2]NodeID{u, v}] = de.W
	}
	want := b.Build()
	if !reflect.DeepEqual(g2, want) {
		t.Fatalf("ApplyDelta CSR differs from Builder build:\n got %+v\nwant %+v", g2, want)
	}
	for e := 0; e < g2.NumEdges(); e++ {
		u, v := g2.EdgeEndpoints(EdgeID(e))
		if w2[e] != wantW[[2]NodeID{u, v}] {
			t.Fatalf("weight of {%d,%d}: got %v want %v", u, v, w2[e], wantW[[2]NodeID{u, v}])
		}
	}

	// Remap: every surviving old edge maps to the new ID of the same
	// endpoints; deleted edges map to -1; inserted IDs resolve.
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(EdgeID(e))
		ne, ok := g2.FindEdge(u, v)
		if (u == 2 && v == 3) || (u == 0 && v == 5) {
			if rm.OldToNew[e] != -1 {
				t.Fatalf("deleted edge %d remapped to %d", e, rm.OldToNew[e])
			}
			continue
		}
		if !ok || rm.OldToNew[e] != ne {
			t.Fatalf("edge %d {%d,%d}: remap %d, graph says %d (ok=%v)", e, u, v, rm.OldToNew[e], ne, ok)
		}
	}
	if rm.Deleted() != 2 {
		t.Fatalf("Deleted() = %d, want 2", rm.Deleted())
	}
	for i, de := range d.Insert {
		u, v := de.U, de.V
		if u > v {
			u, v = v, u
		}
		ne, ok := g2.FindEdge(u, v)
		if !ok || rm.Inserted[i] != ne {
			t.Fatalf("insert %d: remap %d, graph says %d (ok=%v)", i, rm.Inserted[i], ne, ok)
		}
	}
}

func TestApplyDeltaDeleteThenReinsert(t *testing.T) {
	g, w := deltaFixture(t)
	d := Delta{
		Delete: [][2]NodeID{{1, 2}},
		Insert: []DeltaEdge{{U: 1, V: 2, W: 42}},
	}
	g2, w2, _, err := ApplyDelta(g, w, d)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	e, ok := g2.FindEdge(1, 2)
	if !ok || w2[e] != 42 {
		t.Fatalf("reinserted edge weight: got %v (ok=%v), want 42", w2[e], ok)
	}
}

func TestApplyDeltaUnweighted(t *testing.T) {
	g, _ := deltaFixture(t)
	g2, w2, _, err := ApplyDelta(g, nil, Delta{Insert: []DeltaEdge{{U: 2, V: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if w2 != nil {
		t.Fatalf("unweighted delta produced weights %v", w2)
	}
	if !g2.HasEdge(2, 5) {
		t.Fatal("inserted edge missing")
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g, w := deltaFixture(t)
	cases := []struct {
		name string
		d    Delta
	}{
		{"delete missing", Delta{Delete: [][2]NodeID{{0, 3}}}},
		{"delete twice", Delta{Delete: [][2]NodeID{{0, 1}, {1, 0}}}},
		{"delete out of range", Delta{Delete: [][2]NodeID{{6, 1}}}},
		{"delete negative", Delta{Delete: [][2]NodeID{{0, -2}}}},
		{"insert existing", Delta{Insert: []DeltaEdge{{U: 0, V: 1}}}},
		{"insert twice", Delta{Insert: []DeltaEdge{{U: 0, V: 2}, {U: 2, V: 0}}}},
		{"self-loop", Delta{Insert: []DeltaEdge{{U: 3, V: 3}}}},
		{"out of range", Delta{Insert: []DeltaEdge{{U: 0, V: 6}}}},
		{"negative", Delta{Insert: []DeltaEdge{{U: -1, V: 2}}}},
	}
	for _, tc := range cases {
		if _, _, _, err := ApplyDelta(g, w, tc.d); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, _, _, err := ApplyDelta(g, w[:2], Delta{}); err == nil {
		t.Error("short weights: no error")
	}
}

func TestRemapEdgesPreservesOrder(t *testing.T) {
	g, w := deltaFixture(t)
	_, _, rm, err := ApplyDelta(g, w, Delta{
		Delete: [][2]NodeID{{1, 2}},
		Insert: []DeltaEdge{{U: 0, V: 2, W: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []EdgeID
	for _, e := range rm.OldToNew {
		if e >= 0 {
			out = append(out, e)
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatalf("remap broke ascending order: %v", rm.OldToNew)
		}
	}
	if len(out) >= len(rm.OldToNew) {
		t.Fatalf("deleted edge survived remap: %v", rm.OldToNew)
	}
}

// TestApplyDeltaRandomStreams replays random delta streams against a
// from-scratch Builder oracle: after every batch the incremental graph must
// be bit-identical (reflect.DeepEqual on the CSR) to rebuilding the edge set
// from scratch.
func TestApplyDeltaRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	g, err := FromEdges(n, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := Weights{1, 2, 3}
	for step := 0; step < 30; step++ {
		var d Delta
		// Random deletions of existing edges.
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Float64() < 0.15 {
				u, v := g.EdgeEndpoints(EdgeID(e))
				d.Delete = append(d.Delete, [2]NodeID{u, v})
			}
		}
		// Random insertions of absent edges.
		tried := map[[2]NodeID]bool{}
		for k := 0; k < 5; k++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if g.HasEdge(u, v) || tried[[2]NodeID{u, v}] {
				continue
			}
			tried[[2]NodeID{u, v}] = true
			d.Insert = append(d.Insert, DeltaEdge{U: u, V: v, W: rng.Float64()})
		}
		g2, w2, _, err := ApplyDelta(g, w, d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// From-scratch oracle.
		b := NewBuilder(n)
		type we struct{ w float64 }
		wantW := map[[2]NodeID]we{}
		for e := 0; e < g2.NumEdges(); e++ {
			u, v := g2.EdgeEndpoints(EdgeID(e))
			if err := b.AddEdge(u, v); err != nil {
				t.Fatalf("step %d: oracle: %v", step, err)
			}
			wantW[[2]NodeID{u, v}] = we{w2[e]}
		}
		want := b.Build()
		if !reflect.DeepEqual(g2, want) {
			t.Fatalf("step %d: incremental CSR differs from scratch build", step)
		}
		g, w = g2, w2
	}
}
