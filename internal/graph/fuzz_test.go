package graph

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
)

// FuzzBuilder feeds arbitrary edge bytes into the Builder and checks the
// structural invariants of whatever graph results: degree sum = 2m, arc/edge
// cross-references consistent, and BFS never exceeding n nodes.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 5, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		b := NewBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			u := NodeID(data[i] % n)
			v := NodeID(data[i+1] % n)
			b.TryAddEdge(u, v)
		}
		g := b.Build()
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(NodeID(u))
		}
		if sum != 2*g.NumEdges() {
			t.Fatalf("degree sum %d != 2m %d", sum, 2*g.NumEdges())
		}
		for u := NodeID(0); int(u) < n; u++ {
			g.Arcs(u, func(a int32, v NodeID, e EdgeID) bool {
				x, y := g.EdgeEndpoints(e)
				if !((x == u && y == v) || (x == v && y == u)) {
					t.Fatalf("arc %d cross-reference broken", a)
				}
				if u == v {
					t.Fatal("self-loop survived")
				}
				return true
			})
		}
		res := BFS(g, 0)
		if len(res.Reached) > n {
			t.Fatalf("BFS reached %d > n", len(res.Reached))
		}
	})
}

// FuzzDelta feeds arbitrary mutation bytes through ApplyDelta and checks
// the full CSR invariant set of whatever graph results: degree sums, arc
// cross-references, reverse-arc involution, arc-tail occupancy, sorted
// neighbor lists, and no dangling arcs — plus bit-identity with a
// from-scratch Builder on the same edge set and remap consistency.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 0, 1})
	f.Add([]byte{1, 2, 1, 2, 0x81, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 12
		// Seed graph: a cycle, so there is always something to delete.
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.TryAddEdge(NodeID(i), NodeID((i+1)%n))
		}
		g := b.Build()
		w := make(Weights, g.NumEdges())
		for e := range w {
			w[e] = float64(e + 1)
		}
		// Decode mutation bytes: triples (op, u, v). High bit of op selects
		// delete. Most byte values decode mod n; the top two value bands
		// decode to past-the-end and negative node IDs, so the fuzzer can
		// reach the endpoint-range rejection paths (the class of crash a
		// mod-n-only decode can never find).
		decodeNode := func(b byte) NodeID {
			switch {
			case b >= 0xF8:
				return NodeID(n) + NodeID(b&7) // out of range high
			case b >= 0xF0:
				return -NodeID(b&7) - 1 // negative
			default:
				return NodeID(b % n)
			}
		}
		var d Delta
		for i := 0; i+2 < len(data); i += 3 {
			u := decodeNode(data[i+1])
			v := decodeNode(data[i+2])
			if data[i]&0x80 != 0 {
				d.Delete = append(d.Delete, [2]NodeID{u, v})
			} else {
				d.Insert = append(d.Insert, DeltaEdge{U: u, V: v, W: float64(data[i]) + 0.5})
			}
		}
		g2, w2, rm, err := ApplyDelta(g, w, d)
		if err != nil {
			return // rejection is fine; panics and broken invariants are not
		}
		checkCSRInvariants(t, g2)
		if len(w2) != g2.NumEdges() {
			t.Fatalf("weights out of sync: %d for %d edges", len(w2), g2.NumEdges())
		}
		// Remap consistency: no surviving edge dangles.
		for e := 0; e < g.NumEdges(); e++ {
			ne := rm.OldToNew[e]
			if ne < 0 {
				continue
			}
			if int(ne) >= g2.NumEdges() {
				t.Fatalf("remap %d -> %d out of range", e, ne)
			}
			u, v := g.EdgeEndpoints(EdgeID(e))
			nu, nv := g2.EdgeEndpoints(ne)
			if u != nu || v != nv {
				t.Fatalf("remap %d -> %d changed endpoints {%d,%d} -> {%d,%d}", e, ne, u, v, nu, nv)
			}
		}
		// Bit-identity with a from-scratch build of the same edge set.
		b2 := NewBuilder(n)
		for e := 0; e < g2.NumEdges(); e++ {
			u, v := g2.EdgeEndpoints(EdgeID(e))
			if err := b2.AddEdge(u, v); err != nil {
				t.Fatalf("accepted delta produced bad edge set: %v", err)
			}
		}
		want := b2.Build()
		if !graphEqual(g2, want) {
			t.Fatal("incremental CSR differs from from-scratch build")
		}
	})
}

func graphEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	for i := range a.neighbors {
		if a.neighbors[i] != b.neighbors[i] || a.arcEdge[i] != b.arcEdge[i] ||
			a.arcRev[i] != b.arcRev[i] || a.arcTail[i] != b.arcTail[i] {
			return false
		}
	}
	for i := range a.edgeU {
		if a.edgeU[i] != b.edgeU[i] || a.edgeV[i] != b.edgeV[i] {
			return false
		}
	}
	return true
}

// checkCSRInvariants asserts the structural invariants every Graph must
// satisfy: monotone offsets, sorted neighbor lists, reverse-arc involution,
// consistent arc tails/edges, and degree sum = 2m.
func checkCSRInvariants(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumNodes()
	sum := 0
	for u := 0; u < n; u++ {
		sum += g.Degree(NodeID(u))
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2m %d", sum, 2*g.NumEdges())
	}
	for u := NodeID(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if lo > hi {
			t.Fatalf("node %d: inverted arc range [%d,%d)", u, lo, hi)
		}
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			if a > lo && g.ArcTarget(a-1) >= v {
				t.Fatalf("node %d: neighbors not strictly sorted at arc %d", u, a)
			}
			if g.ArcTail(a) != u {
				t.Fatalf("arc %d: tail %d, want %d", a, g.ArcTail(a), u)
			}
			r := g.ArcReverse(a)
			if r < 0 || int(r) >= g.NumArcs() {
				t.Fatalf("arc %d: dangling reverse %d", a, r)
			}
			if g.ArcReverse(r) != a {
				t.Fatalf("arc %d: reverse not involutive (%d -> %d)", a, r, g.ArcReverse(r))
			}
			if g.ArcTail(r) != v || g.ArcTarget(r) != u {
				t.Fatalf("arc %d: reverse %d connects {%d,%d}, want {%d,%d}", a, r, g.ArcTail(r), g.ArcTarget(r), v, u)
			}
			if g.ArcEdge(r) != g.ArcEdge(a) {
				t.Fatalf("arc %d: reverse on different edge", a)
			}
			eu, ev := g.EdgeEndpoints(g.ArcEdge(a))
			if !((eu == u && ev == v) || (eu == v && ev == u)) {
				t.Fatalf("arc %d: edge cross-reference broken", a)
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(EdgeID(e))
		if u >= v {
			t.Fatalf("edge %d: endpoints not ordered ({%d,%d})", e, u, v)
		}
	}
}

// FuzzBitset cross-checks Bitset against a map model under arbitrary
// operation sequences.
func FuzzBitset(f *testing.F) {
	f.Add([]byte{1, 2, 3, 130, 131})
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 200
		b := NewBitset(size)
		model := make(map[int32]bool)
		for i, op := range data {
			x := int32(op) % size
			if i%2 == 0 {
				b.Set(x)
				model[x] = true
			} else {
				b.Clear(x)
				delete(model, x)
			}
		}
		if b.Count() != len(model) {
			t.Fatalf("count %d != model %d", b.Count(), len(model))
		}
		b.ForEach(func(x int32) {
			if !model[x] {
				t.Fatalf("ForEach yielded absent element %d", x)
			}
		})
	})
}

// FuzzDiameterAmong cross-checks the packed DiametersAmong against the
// one-BFS-per-source oracle, set by set, on three vertex-disjoint sets
// decoded from the fuzz bytes. Graphs have up to 80 nodes, so sets cross the
// 64-source word boundary and share words. Decoding: size%80 picks n, and
// size's high bit makes set 2's view saturated (H = E) instead of induced;
// bits 2j and 2j+1 of src pick set j's sources (0: all of S, Src nil; 1: the
// middle node of S alone; 2: the nodes at even positions of S; 3: the last
// two thirds of S); data's first 20 bytes hold two bits per node (bits
// 2(i%4) of byte i/4 for node i: 0 for no set, 1–3 for sets 0–2); the
// remaining bytes are edge pairs (a, b), and a's high bit puts the edge in
// set 0's H, b's in set 1's.
func FuzzDiameterAmong(f *testing.F) {
	everyNode := bytes.Repeat([]byte{0x55}, 20)     // all in set 0
	threeWays := bytes.Repeat([]byte{0xe4}, 20)     // none, set 0, set 1, set 2 in turn
	set1Sparse := bytes.Repeat([]byte{0x08, 0}, 10) // every eighth node in set 1
	path, hPath := make([]byte, 0, 158), make([]byte, 0, 158)
	for i := byte(0); i < 79; i++ {
		path = append(path, i, i+1)
		hPath = append(hPath, i|0x80, i+1|0x80)
	}
	f.Add(byte(79), byte(0), slices.Concat(everyNode, path))          // a path through all 80 nodes
	f.Add(byte(79), byte(0), slices.Concat(set1Sparse, hPath))        // set 1 joined only through H
	f.Add(byte(79|0x80), byte(0), slices.Concat(threeWays, path))     // sets 0 and 1 induced: -1; set 2 saturated
	f.Add(byte(69), byte(0), slices.Concat(everyNode, path[:80]))     // part of set 0 cut off: -1
	f.Add(byte(79|0x80), byte(0), slices.Concat(threeWays, hPath))    // all three views in every word
	f.Add(byte(79), byte(1), slices.Concat(everyNode, path))          // the path's middle node: 40
	f.Add(byte(79), byte(3), slices.Concat(everyNode, path))          // its last 54 nodes: 79, from node 79 to node 0
	f.Add(byte(79|0x80), byte(0x39), slices.Concat(threeWays, hPath)) // three source rules, three views
	f.Fuzz(func(t *testing.T, size, src byte, data []byte) {
		n := int(size)%80 + 1
		sets := make([]AmongSet, 3)
		for i := 0; i < n; i++ {
			if i/4 < len(data) {
				if j := data[i/4] >> (2 * (i % 4)) & 3; j > 0 {
					sets[j-1].S = append(sets[j-1].S, NodeID(i))
				}
			}
		}
		b := NewBuilder(n)
		var inH [2][][2]NodeID
		for i := 20; i+1 < len(data); i += 2 {
			u, v := NodeID(int(data[i]&0x7f)%n), NodeID(int(data[i+1]&0x7f)%n)
			if u == v {
				continue
			}
			b.TryAddEdge(u, v)
			for j, hi := range []byte{data[i], data[i+1]} {
				if hi&0x80 != 0 {
					inH[j] = append(inH[j], [2]NodeID{u, v})
				}
			}
		}
		g := b.Build()
		for j, pairs := range inH {
			seen := NewBitset(g.NumEdges())
			for _, p := range pairs {
				e, ok := g.FindEdge(p[0], p[1])
				if !ok {
					t.Fatalf("edge {%d,%d} missing after Build", p[0], p[1])
				}
				if !seen.Has(e) { // H lists each edge once
					seen.Set(e)
					sets[j].H = append(sets[j].H, e)
				}
			}
		}
		if size&0x80 != 0 {
			for e := 0; e < g.NumEdges(); e++ {
				sets[2].H = append(sets[2].H, EdgeID(e))
			}
		}
		for j := range sets {
			S := sets[j].S
			if len(S) == 0 {
				continue
			}
			switch src >> (2 * j) & 3 {
			case 1:
				sets[j].Src = S[len(S)/2 : len(S)/2+1]
			case 2:
				for i := 0; i < len(S); i += 2 {
					sets[j].Src = append(sets[j].Src, S[i])
				}
			case 3:
				sets[j].Src = S[len(S)/3:]
			}
		}
		checkAgainstOracle(t, "n="+strconv.Itoa(n), g, sets)
	})
}
