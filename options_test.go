package repro_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// The tests below vary each facade option that is a paper parameter, an
// ablation knob or a deployment setting, and check that the entry point it
// applies to observes it.

// TestWithRepsSetsRepetitions: the sampling repeats D times by default
// (the paper's Reps) and exactly WithReps times when set.
func TestWithRepsSetsRepetitions(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	const d = 5
	for reps, want := range map[int]int{0: d, 2: 2} {
		s, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p,
			repro.WithSeed(1), repro.WithDiameter(d), repro.WithReps(reps))
		if err != nil {
			t.Fatal(err)
		}
		if s.Params.Reps != want {
			t.Errorf("WithReps(%d): Params.Reps = %d, want %d", reps, s.Params.Reps, want)
		}
	}
}

// TestWithRadiusShrinksLocalShortcuts: the local variant samples only arcs
// whose tail lies within the radius of the part. A large sampling boost
// makes P = 1, so every such arc is taken and the comparison is exact
// rather than statistical: radius 1 takes strictly fewer edges than
// radius D.
func TestWithRadiusShrinksLocalShortcuts(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	const d = 5
	build := func(radius int) *repro.Shortcuts {
		s, err := repro.BuildShortcutsLocalCtx(ctx, fx.g, fx.p, repro.WithSeed(1),
			repro.WithDiameter(d), repro.WithSamplingBoost(1e6), repro.WithRadius(radius))
		if err != nil {
			t.Fatal(err)
		}
		if s.Params.P != 1 {
			t.Fatalf("sampling probability %v, want 1", s.Params.P)
		}
		return s
	}
	near, far := build(1), build(d)
	if near.TotalShortcutEdges() >= far.TotalShortcutEdges() {
		t.Errorf("WithRadius(1) Σ|Hi| = %d, not below WithRadius(%d) Σ|Hi| = %d",
			near.TotalShortcutEdges(), d, far.TotalShortcutEdges())
	}
}

// TestWithEpsScalesPackedTrees: the packed-tree count is the default
// scaled by 1/eps, so eps = 0.5 packs exactly twice the default.
func TestWithEpsScalesPackedTrees(t *testing.T) {
	g, w := makeTwoECSSGraph(t)
	ctx := context.Background()
	def, err := repro.MinCutApproxCtx(ctx, g, w, repro.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	half, err := repro.MinCutApproxCtx(ctx, g, w, repro.WithSeed(1), repro.WithEps(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if half.Trees != 2*def.Trees {
		t.Errorf("WithEps(0.5) packed %d trees, want 2 × %d", half.Trees, def.Trees)
	}
}

// TestWithRequestTimeoutBoundsHeaderlessQueries: a query without a
// Request-Timeout header runs under the gateway's default deadline. An
// expired default is a 504; with no default the same query is a 200.
func TestWithRequestTimeoutBoundsHeaderlessQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, err := repro.ClusterChain(200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := repro.VoronoiParts(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := repro.NewSnapshotCtx(context.Background(), g, repro.UniformWeights(g, rng), parts,
		repro.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repro.NewServerV2(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts []repro.Option
		want int
	}{
		{nil, http.StatusOK},
		{[]repro.Option{repro.WithRequestTimeout(time.Nanosecond)}, http.StatusGatewayTimeout},
	} {
		gw, err := repro.NewGateway(srv, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(gw.Handler())
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"sssp","source":0}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		gw.Close()
		if resp.StatusCode != c.want {
			t.Errorf("options %d: status %d, want %d: %s", len(c.opts), resp.StatusCode, c.want, raw)
		}
	}
}
