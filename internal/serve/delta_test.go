package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/testx"
)

// TestApplyDeltaRejectsBadInput pins that malformed deltas — including
// endpoints outside the vertex universe, which must be caught before any
// part-table indexing — and a deletion that disconnects a part fail with
// KindInvalidInput, never a panic.
func TestApplyDeltaRejectsBadInput(t *testing.T) {
	fx := makeFixture(t, 200, 9)
	n := graph.NodeID(fx.g.NumNodes())
	u, v, ok := testx.PartLeafEdge(fx.g, fx.snap.Partition().PartOf)
	if !ok {
		t.Fatal("fixture has no node with a single intra-part edge")
	}
	cases := []struct {
		name string
		d    graph.Delta
	}{
		{"empty", graph.Delta{}},
		{"insert endpoint past n", graph.Delta{Insert: []graph.DeltaEdge{{U: n, V: 1}}}},
		{"insert negative endpoint", graph.Delta{Insert: []graph.DeltaEdge{{U: -1, V: 1}}}},
		{"delete endpoint past n", graph.Delta{Delete: [][2]graph.NodeID{{n, 1}}}},
		{"delete negative endpoint", graph.Delta{Delete: [][2]graph.NodeID{{0, -3}}}},
		{"delete missing edge", graph.Delta{Delete: [][2]graph.NodeID{{0, 0}}}},
		{"insert self-loop", graph.Delta{Insert: []graph.DeltaEdge{{U: 2, V: 2}}}},
		{"delete disconnects a part", graph.Delta{Delete: [][2]graph.NodeID{{u, v}}}},
	}
	for _, tc := range cases {
		_, err := serve.ApplyDelta(context.Background(), fx.snap, tc.d, serve.DeltaOptions{})
		if k := reproerr.KindOf(err); k != reproerr.KindInvalidInput {
			t.Errorf("%s: kind %v (err %v), want %v", tc.name, k, err, reproerr.KindInvalidInput)
		}
	}
	_, err := serve.ApplyDelta(context.Background(), nil, graph.Delta{Insert: []graph.DeltaEdge{{U: 0, V: 1}}}, serve.DeltaOptions{})
	if k := reproerr.KindOf(err); k != reproerr.KindInvalidInput {
		t.Errorf("nil snapshot: kind %v (err %v), want %v", k, err, reproerr.KindInvalidInput)
	}
}

// TestApplyDeltaCanceled pins ApplyDelta's cancellation: a canceled ctx
// ends in KindCanceled and an expired deadline in KindDeadline, each
// wrapping its context error and returning no snapshot — on a sampled
// build (P < 1) and on a saturated one (P ≥ 1), whose shortcuts are listed
// without drawing.
func TestApplyDeltaCanceled(t *testing.T) {
	fx := makeFixture(t, 200, 9)
	for _, tc := range []struct {
		name      string
		logFactor float64
		saturated bool
	}{
		{"sampled", 0.3, false},
		{"saturated", 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := serve.NewSnapshot(fx.g, fx.w, fx.parts, serve.SnapshotOptions{
				Rng: rand.New(rand.NewSource(5)), LogFactor: tc.logFactor,
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := snap.Shortcuts().Params.P; (p >= 1) != tc.saturated {
				t.Fatalf("sampling probability %v, want saturated=%v", p, tc.saturated)
			}
			d, err := gen.InsertDelta(fx.g, 4, rand.New(rand.NewSource(6)))
			if err != nil {
				t.Fatal(err)
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel2()
			for _, c := range []struct {
				ctx   context.Context
				kind  reproerr.Kind
				cause error
			}{
				{canceled, reproerr.KindCanceled, context.Canceled},
				{expired, reproerr.KindDeadline, context.DeadlineExceeded},
			} {
				next, err := serve.ApplyDelta(c.ctx, snap, d, serve.DeltaOptions{})
				if next != nil {
					t.Errorf("%v: returned a snapshot", c.kind)
				}
				if k := reproerr.KindOf(err); k != c.kind || !errors.Is(err, c.cause) {
					t.Errorf("err %v (kind %v), want kind %v wrapping %v", err, k, c.kind, c.cause)
				}
			}
		})
	}
}

// TestApplyDeltaTouchedSameLength pins the element-wise half of the touched
// rule: a delta that trades one of a large part's Step-1 edges for another
// leaves the part's shortcut list as long as before, and the part must
// still count as touched.
func TestApplyDeltaTouchedSameLength(t *testing.T) {
	fx := makeFixture(t, 200, 9)
	p := fx.snap.Partition()
	for pi, h := range fx.snap.Shortcuts().H {
		if len(h) == 0 {
			continue // not a large part
		}
		for _, x := range p.Part(pi).Nodes {
			// y: a neighbour of x outside the part; z: a non-neighbour
			// outside it. Both edges are Step-1 edges of part pi, and
			// neither is intra-part.
			y, z := graph.NodeID(-1), graph.NodeID(-1)
			fx.g.Arcs(x, func(_ int32, v graph.NodeID, _ graph.EdgeID) bool {
				if p.PartOf(v) != int32(pi) {
					y = v
					return false
				}
				return true
			})
			for v := graph.NodeID(0); int(v) < fx.g.NumNodes() && z < 0; v++ {
				if v != x && p.PartOf(v) != int32(pi) && !fx.g.HasEdge(x, v) {
					z = v
				}
			}
			if y < 0 || z < 0 {
				continue
			}
			d := graph.Delta{
				Delete: [][2]graph.NodeID{{x, y}},
				Insert: []graph.DeltaEdge{{U: x, V: z, W: 0.5}},
			}
			next, err := serve.ApplyDelta(context.Background(), fx.snap, d, serve.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(next.Shortcuts().H[pi]); got != len(h) {
				t.Fatalf("part %d: |H| %d -> %d, want unchanged", pi, len(h), got)
			}
			touched := next.Repair().Touched
			if !slices.Contains(touched, pi) {
				t.Fatalf("part %d not in touched %v", pi, touched)
			}
			if want := changedByEndpoints(fx.snap, next); !slices.Equal(touched, want) {
				t.Fatalf("touched %v, want %v", touched, want)
			}
			return
		}
	}
	t.Fatal("fixture has no large part with a swappable Step-1 edge")
}
