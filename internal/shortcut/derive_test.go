package shortcut

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// deriveDelta draws a delta over g: ins insertions of absent edges, del
// deletions of present ones, and again more edges deleted and inserted
// again in the same delta.
func deriveDelta(g *graph.Graph, ins, del, again int, rng *rand.Rand) graph.Delta {
	var d graph.Delta
	dead := map[graph.EdgeID]bool{}
	for len(d.Delete) < del+again {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if dead[e] {
			continue
		}
		dead[e] = true
		u, v := g.EdgeEndpoints(e)
		d.Delete = append(d.Delete, [2]graph.NodeID{u, v})
	}
	for _, uv := range d.Delete[del:] {
		d.Insert = append(d.Insert, graph.DeltaEdge{U: uv[0], V: uv[1], W: 1})
	}
	seen := map[[2]graph.NodeID]bool{}
	for len(d.Insert) < again+ins {
		u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		d.Insert = append(d.Insert, graph.DeltaEdge{U: u, V: v, W: 1})
	}
	return d
}

// changedUnderRemap lists, ascending, the parts whose list in newH is not
// their list in oldH carried through oldToNew: a deleted edge maps to -1
// and an inserted one has no preimage, so either marks its part.
func changedUnderRemap(oldH, newH [][]graph.EdgeID, oldToNew []graph.EdgeID) []int {
	var out []int
	for pi, h := range newH {
		same := len(oldH[pi]) == len(h)
		for j := 0; same && j < len(h); j++ {
			same = oldToNew[oldH[pi][j]] == h[j]
		}
		if !same {
			out = append(out, pi)
		}
	}
	return out
}

// TestDeriveMatchesBuildSeeded walks random delta chains on ER and
// ClusterChain graphs, sampled (P < 1) and saturated (P ≥ 1): at every step
// DeriveSeeded must equal BuildSeeded on the post-delta graph, its touched
// list must be the parts whose list changed under the edge remap, no two
// large parts may share a list, and no list may alias the old assignment's.
// The chains cover insert-only, mixed and delete-only deltas, an edge
// deleted and re-inserted in one delta, and an empty delta, which touches
// nothing.
func TestDeriveMatchesBuildSeeded(t *testing.T) {
	families := []struct {
		name string
		make func(rng *rand.Rand) *graph.Graph
	}{
		{"er", func(rng *rand.Rand) *graph.Graph {
			for {
				if g := gen.ErdosRenyi(300, 8.0/300, rng); graph.IsConnected(g) {
					return g
				}
			}
		}},
		{"chain", func(rng *rand.Rand) *graph.Graph {
			g, err := gen.ClusterChain(300, 6, rng)
			if err != nil {
				panic(err)
			}
			return g
		}},
	}
	steps := []struct{ ins, del, again int }{
		{8, 0, 0}, {6, 3, 0}, {0, 4, 0}, {3, 2, 1}, {0, 0, 1}, {0, 0, 0}, {12, 6, 2},
	}
	const d = 5
	for fi, fam := range families {
		for _, logFactor := range []float64{0.3, 100} {
			t.Run(fmt.Sprintf("%s/logFactor=%v", fam.name, logFactor), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(40 + fi)))
				g := fam.make(rng)
				parts, err := gen.VoronoiParts(g, 8, rng)
				if err != nil {
					t.Fatal(err)
				}
				p := mustPartition(t, g, parts)
				seed := rng.Uint64()
				opts := Options{Diameter: d, LogFactor: logFactor}
				s, err := BuildSeeded(g, p, opts, seed)
				if err != nil {
					t.Fatal(err)
				}
				params := s.Params
				if (params.P >= 1) != (logFactor == 100) {
					t.Fatalf("P = %v at log factor %v", params.P, logFactor)
				}
				large := p.LargeParts(int(params.KD))
				if len(large) == 0 {
					t.Fatal("no large part")
				}
				for si, st := range steps {
					var delta graph.Delta
					var g2 *graph.Graph
					var rm *graph.DeltaRemap
					var p2 *Partition
					for {
						delta = deriveDelta(g, st.ins, st.del, st.again, rng)
						if g2, _, rm, err = graph.ApplyDelta(g, nil, delta); err != nil {
							t.Fatal(err)
						}
						if p2, err = p.Rebind(g2, recheckParts(g, p, delta)); err == nil {
							break // else the deletions disconnected a part: draw again
						}
					}
					got, touched, err := DeriveSeeded(p2, s, rm, rm.Inserted, params, seed)
					if err != nil {
						t.Fatalf("step %d: %v", si, err)
					}
					want, err := BuildSeeded(g2, p2, opts, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%d inserts, %d deletes): derived assignment differs from BuildSeeded", si, len(delta.Insert), len(delta.Delete))
					}
					if oracle := changedUnderRemap(s.H, got.H, rm.OldToNew); !slices.Equal(touched, oracle) {
						t.Fatalf("step %d: touched %v, want %v", si, touched, oracle)
					}
					if delta.Size() == 0 && len(touched) != 0 {
						t.Fatalf("step %d: empty delta touched %v", si, touched)
					}
					if delta.Size() > 0 && params.P >= 1 && !slices.Equal(touched, large) {
						t.Fatalf("step %d: saturated delta touched %v, want every large part %v", si, touched, large)
					}
					owner := map[*graph.EdgeID]int{}
					for _, h := range s.H {
						if len(h) > 0 {
							owner[&h[0]] = -1
						}
					}
					for pi, h := range got.H {
						if len(h) == 0 {
							continue
						}
						if j, shared := owner[&h[0]]; shared {
							t.Fatalf("step %d: part %d shares its list with part %d (-1: the old assignment)", si, pi, j)
						}
						owner[&h[0]] = pi
					}
					g, p, s = g2, p2, got
				}
			})
		}
	}
}
