package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraphs builds the graph shapes the seed-equivalence property runs
// over: the "typical" ClusterChain workload, the lower-bound-shaped
// HardInstance, and a sparse random graph, across a few seeds.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	shapes := make(map[string]*graph.Graph)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		cc, err := gen.ClusterChain(700+int(seed)*100, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("clusterchain/seed=%d", seed)] = cc
		hi, err := gen.NewHardInstance(500+int(seed)*50, 4, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("hardinstance/seed=%d", seed)] = hi.G
		shapes[fmt.Sprintf("erdosrenyi/seed=%d", seed)] = gen.ErdosRenyi(300, 0.02, rng)
	}
	return shapes
}

// TestFlatEngineMatchesSeedEngine pins the flat-buffer engine to the seed
// engine's observable behavior on the BFS workload: identical
// distances, parent ports (inbox-order sensitive!), child ports, and Stats.
// Inbox order is preserved because Builder sorts each node's neighbor list
// by ID, so the seed's (receiver, sender-arc) sort order coincides with the
// flat engine's CSR port order.
func TestFlatEngineMatchesSeedEngine(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			root := graph.NodeID(1)
			seedTree, seedStats, err := seedRunBFS(g, root, false, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			goSeedTree, goSeedStats, err := seedRunBFS(g, root, true, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if seedStats != goSeedStats || !reflect.DeepEqual(seedTree.Dist, goSeedTree.Dist) {
				t.Fatal("seed engines disagree with each other")
			}
			tree, stats, err := RunBFS(g, root, seq(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			if stats != seedStats {
				t.Errorf("stats %+v, want seed %+v", stats, seedStats)
			}
			if !reflect.DeepEqual(tree.Dist, seedTree.Dist) ||
				!reflect.DeepEqual(tree.ParentPort, seedTree.ParentPort) {
				t.Error("tree differs from seed engine")
			}
			if !childPortsEqual(tree.ChildPorts, seedTree.ChildPorts) {
				t.Error("child ports differ from seed engine")
			}
		})
	}
}

// childPortsEqual treats nil and empty per-node slices as equal.
func childPortsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if len(a[v]) != len(b[v]) {
			return false
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				return false
			}
		}
	}
	return true
}

// TestEngineEmptyGraph: a run over zero nodes terminates in zero rounds.
func TestEngineEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	stats, progs, err := Run(g, func(v *View) Program { return &bfsNode{root: 0} }, Options{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 || len(progs) != 0 {
		t.Errorf("%+v, %d programs", stats, len(progs))
	}
}

// TestEngineSteadyStateAllocs asserts the zero-allocation claim for the
// delivery path: a run's allocations are the O(n) per-run state (programs,
// views, flat buffers), NOT a function of delivered message volume. We run
// the same always-broadcasting program for 10 and for 60 rounds and require
// the 50 extra rounds of full-graph traffic to add (almost) no allocations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	g := gen.Cycle(2000)
	run := func(maxRounds int) (msgs int64) {
		eng := seq(maxRounds)
		stats, _, err := eng.Run(g, func(*View) Program { return chatterbox{} })
		if err == nil {
			t.Fatal("chatterbox should exhaust MaxRounds")
		}
		return stats.Messages
	}
	var shortMsgs, longMsgs int64
	shortAllocs := testing.AllocsPerRun(5, func() { shortMsgs = run(10) })
	longAllocs := testing.AllocsPerRun(5, func() { longMsgs = run(60) })
	extraMsgs := longMsgs - shortMsgs
	if extraMsgs < 100_000 {
		t.Fatalf("expected ≥100k extra messages, got %d", extraMsgs)
	}
	marginal := (longAllocs - shortAllocs) / float64(extraMsgs)
	if marginal > 0.001 {
		t.Errorf("marginal allocations per delivered message = %f (%f → %f allocs for %d extra msgs); delivery path is allocating in steady state",
			marginal, shortAllocs, longAllocs, extraMsgs)
	}
}
