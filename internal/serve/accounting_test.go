package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// accountingCase is one input of the accounting tests: a graph, its
// weights and parts, and the build diameter (0 = double-sweep estimate).
type accountingCase struct {
	name     string
	g        *graph.Graph
	w        graph.Weights
	parts    [][]graph.NodeID
	diameter int
}

// accountingCases covers Erdős–Rényi and cluster-chain graphs with Voronoi
// parts, and the paper's D=3 and D=4 hard instances with their bottom paths
// as parts.
func accountingCases(t *testing.T) []accountingCase {
	t.Helper()
	var cases []accountingCase
	for i, fam := range diffFamilies()[:2] { // chain, er
		rng := rand.New(rand.NewSource(int64(700 + i)))
		g := fam.make(400, rng)
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		parts, err := gen.VoronoiParts(g, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, accountingCase{fam.name, g, w, parts, 0})
	}
	for _, d := range []int{3, 4} {
		rng := rand.New(rand.NewSource(int64(710 + d)))
		hi, err := gen.NewHardInstance(500, d, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		w := graph.NewUniformWeights(hi.G.NumEdges(), rng)
		cases = append(cases, accountingCase{fmt.Sprintf("hard-D%d", d), hi.G, w, hi.Paths, d})
	}
	return cases
}

func (c accountingCase) build(t *testing.T, distributed bool) *serve.Snapshot {
	t.Helper()
	sn, err := serve.NewSnapshot(c.g, c.w, c.parts, serve.SnapshotOptions{
		Rng: rand.New(rand.NewSource(42)), Diameter: c.diameter, LogFactor: 0.3,
		Distributed: distributed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestUnsimulatedSnapshotMatchesSimulated pins the build's one source of
// the served tree: a snapshot built without SnapshotOptions.Distributed
// (the tree from the Borůvka mirror alone) equals one built with it in
// every field but cost — shortcuts, parameters, quality and per-part
// dilation, the tree in order and its weight, and every answer, sssp from
// every source included.
func TestUnsimulatedSnapshotMatchesSimulated(t *testing.T) {
	for _, c := range accountingCases(t) {
		t.Run(c.name, func(t *testing.T) {
			plain, sim := c.build(t, false), c.build(t, true)
			if r, m, p := sim.BuildCost(); r == 0 || m == 0 || p == 0 {
				t.Fatalf("simulated build recorded no cost: %d rounds, %d messages, %d phases", r, m, p)
			}
			if plain.Diameter() != sim.Diameter() {
				t.Fatalf("diameter %d vs %d", plain.Diameter(), sim.Diameter())
			}
			assertSnapshotsEqual(t, c.name, plain, sim)
			assertServesIdentically(t, c.name, plain, sim, c.g, c.parts)
			all := make([]serve.Query, c.g.NumNodes())
			for v := range all {
				all[v] = serve.SSSPQuery{Source: graph.NodeID(v)}
			}
			ctx := context.Background()
			got, err := serve.NewServer(plain, serve.ServerOptions{}).ServeBatchCtx(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			want, err := serve.NewServer(sim, serve.ServerOptions{}).ServeBatchCtx(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			for v := range all {
				assertAnswersEqual(t, fmt.Sprintf("%s sssp(%d)", c.name, v), got[v], want[v])
			}
		})
	}
}

// TestSnapshotChargesOnlyWhenSimulated pins who pays simulated cost. A
// default build charges nothing: zero rounds and messages on Cost,
// BuildCost and Phases, and on every sssp answer, single or batched. That
// holds after a delta, after a file round trip, and after a delta on the
// loaded file. A build with SnapshotOptions.Distributed keeps charging
// through the same steps.
func TestSnapshotChargesOnlyWhenSimulated(t *testing.T) {
	c := accountingCases(t)[1] // er
	for _, distributed := range []bool{false, true} {
		t.Run(fmt.Sprintf("distributed=%v", distributed), func(t *testing.T) {
			ctx := context.Background()
			check := func(stage string, sn *serve.Snapshot, built bool) {
				t.Helper()
				assertCharges(t, fmt.Sprintf("%s/distributed=%v", stage, distributed), sn, distributed, built)
			}
			sn := c.build(t, distributed)
			check("build", sn, true)
			d, err := gen.InsertDelta(c.g, 4, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			next, err := serve.ApplyDelta(ctx, sn, d, serve.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check("delta", next, false)

			path := filepath.Join(t.TempDir(), "snap.lcsnap")
			if err := serve.WriteSnapshotFile(path, sn); err != nil {
				t.Fatal(err)
			}
			loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			check("load", loaded, true)
			if loaded.Cost() != sn.Cost() || loaded.Phases() != sn.Phases() {
				t.Fatalf("loaded cost %+v/%d, built %+v/%d", loaded.Cost(), loaded.Phases(), sn.Cost(), sn.Phases())
			}
			loadedNext, err := serve.ApplyDelta(ctx, loaded, d, serve.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check("load+delta", loadedNext, false)
			a := serveSSSP(t, next, 0)
			b := serveSSSP(t, loadedNext, 0)
			if a.Cost != b.Cost {
				t.Fatalf("delta answer charges %+v, delta on the loaded file %+v", a.Cost, b.Cost)
			}
		})
	}
}

// assertCharges checks a snapshot's simulated cost. Unsimulated, every
// simulated field is zero. Simulated, a build (or a load of one) reports
// its rounds, messages and phases, a delta reports none of its own, and
// the answers of both charge rounds and messages.
func assertCharges(t *testing.T, tag string, sn *serve.Snapshot, simulated, built bool) {
	t.Helper()
	c := sn.Cost()
	r, m, p := sn.BuildCost()
	if sn.Phases() != p || c.Rounds != r || c.Messages != m {
		t.Fatalf("%s: Cost %+v and Phases %d disagree with BuildCost %d/%d/%d", tag, c, sn.Phases(), r, m, p)
	}
	if c.Wall <= 0 {
		t.Fatalf("%s: no wall time recorded: %+v", tag, c)
	}
	switch {
	case simulated && built:
		if r == 0 || m == 0 || p == 0 || c.SchedStats.Rounds == 0 {
			t.Fatalf("%s: simulated build recorded no cost: %+v, %d phases", tag, c, p)
		}
	case c != cost.Cost{Wall: c.Wall} || (!simulated && p != 0):
		t.Fatalf("%s: charged simulated build cost %+v, %d phases", tag, c, p)
	}

	answers := []*serve.SSSPAnswer{serveSSSP(t, sn, 0)}
	batch, err := serve.NewServer(sn, serve.ServerOptions{}).ServeBatchCtx(context.Background(),
		[]serve.Query{serve.SSSPQuery{Source: 1}, serve.SSSPQuery{Source: 2}, serve.SSSPQuery{Source: 1}})
	if err != nil {
		t.Fatalf("%s: batch: %v", tag, err)
	}
	for _, a := range batch {
		answers = append(answers, a.(*serve.SSSPAnswer))
	}
	for i, a := range answers {
		ok := a.Rounds == 0 && a.Messages == 0
		if simulated {
			ok = a.Rounds > 0 && a.Messages > 0
		}
		if !ok {
			t.Fatalf("%s: answer %d charges %d rounds, %d messages", tag, i, a.Rounds, a.Messages)
		}
	}
}

func serveSSSP(t *testing.T, sn *serve.Snapshot, src graph.NodeID) *serve.SSSPAnswer {
	t.Helper()
	a, err := serve.NewServer(sn, serve.ServerOptions{}).Serve(serve.SSSPQuery{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*serve.SSSPAnswer)
}
