package sched

// Seed-equivalence property tests: the flat scheduler, with both per-task
// state representations, must reproduce the seed scheduler's outcomes
// bit-for-bit — visited sets, distances, parents, children orders,
// aggregation results, and Stats — across seeds, graph shapes, and task
// counts.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

type equivScenario struct {
	name     string
	g        *graph.Graph
	tasks    []BFSTask
	maxDelay int
}

func equivScenarios(t testing.TB) []equivScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var out []equivScenario

	mkTasks := func(g *graph.Graph, k int, depth int32, filtered bool) []BFSTask {
		tasks := make([]BFSTask, k)
		for i := range tasks {
			tasks[i] = BFSTask{Root: graph.NodeID(rng.Intn(g.NumNodes())), DepthLimit: depth}
			if filtered && i%2 == 1 {
				mod := int32(2 + i%3)
				tasks[i].Allowed = func(_ int32, _, _ graph.NodeID, e graph.EdgeID) bool {
					return e%mod != 0
				}
			}
		}
		return tasks
	}

	cc, err := gen.ClusterChain(400, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out,
		equivScenario{"clusterchain/1task", cc, mkTasks(cc, 1, -1, false), 0},
		equivScenario{"clusterchain/9tasks", cc, mkTasks(cc, 9, 7, true), 12},
		equivScenario{"clusterchain/24tasks", cc, mkTasks(cc, 24, 5, true), 8},
	)

	hi, err := gen.NewHardInstance(500, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out,
		equivScenario{"hardinstance/6tasks", hi.G, mkTasks(hi.G, 6, -1, false), 6},
		equivScenario{"hardinstance/16tasks", hi.G, mkTasks(hi.G, 16, 9, true), 16},
	)

	er := gen.ErdosRenyi(300, 0.02, rng)
	out = append(out,
		equivScenario{"erdosrenyi/5tasks", er, mkTasks(er, 5, -1, false), 0},
		equivScenario{"erdosrenyi/12tasks", er, mkTasks(er, 12, 4, true), 20},
	)

	star := gen.Star(50)
	out = append(out,
		equivScenario{"star/10tasks", star, mkTasks(star, 10, -1, false), 10},
		equivScenario{"star/depth0", star, mkTasks(star, 4, 0, false), 3},
	)
	return out
}

// localValueFor derives a deterministic per-node candidate so both
// schedulers aggregate identical inputs; every 5th node holds an invalid
// value to exercise the Valid ordering.
func localValueFor(v graph.NodeID) AggValue {
	if v%5 == 4 {
		return AggValue{}
	}
	return AggValue{Weight: float64((v * 7) % 13), Edge: graph.EdgeID(v), Valid: true}
}

func compareBFS(t *testing.T, label string, g *graph.Graph, want []*seedBFSOutcome, got *BFSForest) {
	t.Helper()
	if got.NumTasks() != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", label, got.NumTasks(), len(want))
	}
	for ti := range want {
		o := got.Outcome(ti)
		w := want[ti]
		if o.Len() != len(w.Dist) {
			t.Fatalf("%s: task %d visited %d nodes, want %d", label, ti, o.Len(), len(w.Dist))
		}
		for i := 0; i < o.Len(); i++ {
			v := o.Node(i)
			wd, ok := w.Dist[v]
			if !ok {
				t.Fatalf("%s: task %d visited %d which the seed did not", label, ti, v)
			}
			if d := o.DistAt(i); d != wd {
				t.Fatalf("%s: task %d Dist[%d] = %d, want %d", label, ti, v, d, wd)
			}
			wp, hasParent := w.Parent[v]
			if p := o.ParentAt(i); (p >= 0) != hasParent || (hasParent && p != wp) {
				t.Fatalf("%s: task %d Parent[%d] = %d, want %d (present %v)", label, ti, v, p, wp, hasParent)
			}
			kids := o.ChildArcsAt(i)
			if len(kids) != len(w.Children[v]) {
				t.Fatalf("%s: task %d node %d has %d children, want %d", label, ti, v, len(kids), len(w.Children[v]))
			}
			for j, a := range kids {
				if c := g.ArcTarget(a); c != w.Children[v][j] {
					t.Fatalf("%s: task %d node %d child %d = %d, want %d (order must match)", label, ti, v, j, c, w.Children[v][j])
				}
				if g.ArcTail(a) != v {
					t.Fatalf("%s: task %d node %d child arc %d has tail %d", label, ti, v, a, g.ArcTail(a))
				}
			}
		}
	}
}

func seedAggTasksFrom(out []*seedBFSOutcome, tasks []BFSTask) []seedAggTask {
	aggs := make([]seedAggTask, len(out))
	for i, o := range out {
		local := make(map[graph.NodeID]AggValue, len(o.Dist))
		for v := range o.Dist {
			local[v] = localValueFor(v)
		}
		aggs[i] = seedAggTask{Root: tasks[i].Root, Parent: o.Parent, Children: o.Children, Local: local}
	}
	return aggs
}

func flatAggTasksFrom(f *BFSForest, tasks []BFSTask) []AggTask {
	aggs := make([]AggTask, f.NumTasks())
	for i := range aggs {
		o := f.Outcome(i)
		local := make([]AggValue, o.Len())
		for j := range local {
			local[j] = localValueFor(o.Node(j))
		}
		aggs[i] = AggTask{Root: tasks[i].Root, Tree: o, Local: local}
	}
	return aggs
}

func TestFlatSchedulerMatchesSeed(t *testing.T) {
	var runner Runner
	for _, sc := range equivScenarios(t) {
		seedOpts := Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(7))}
		wantBFS, wantBFSStats, err := seedParallelBFS(sc.g, sc.tasks, seedOpts)
		if err != nil {
			t.Fatalf("%s: seed BFS: %v", sc.name, err)
		}
		wantAgg, wantAggStats, err := seedParallelMinAggregate(sc.g, seedAggTasksFrom(wantBFS, sc.tasks),
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(8))})
		if err != nil {
			t.Fatalf("%s: seed aggregate: %v", sc.name, err)
		}

		f, stats, err := runner.ParallelBFS(sc.g, sc.tasks,
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatalf("%s: flat BFS: %v", sc.name, err)
		}
		if stats != wantBFSStats {
			t.Fatalf("%s: BFS stats %+v, want %+v", sc.name, stats, wantBFSStats)
		}
		compareBFS(t, sc.name, sc.g, wantBFS, f)

		gotAgg, aggStats, err := runner.ParallelMinAggregate(sc.g, flatAggTasksFrom(f, sc.tasks),
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(8))})
		if err != nil {
			t.Fatalf("%s: flat aggregate: %v", sc.name, err)
		}
		if aggStats != wantAggStats {
			t.Fatalf("%s: aggregate stats %+v, want %+v", sc.name, aggStats, wantAggStats)
		}
		for i := range wantAgg {
			if gotAgg[i] != wantAgg[i] {
				t.Fatalf("%s: aggregate[%d] = %+v, want %+v", sc.name, i, gotAgg[i], wantAgg[i])
			}
		}
	}
}

// TestAllowedNilMatchesAdmitAll pins the equivalence mst's MWOE phase
// rests on when it gives a part whose shortcut is all of E a nil Allowed:
// the scheduler's admit-all path must grow the same trees, with the same
// Stats, as a filter that admits every arc.
func TestAllowedNilMatchesAdmitAll(t *testing.T) {
	admitAll := func(int32, graph.NodeID, graph.NodeID, graph.EdgeID) bool { return true }
	var runner Runner
	for _, sc := range equivScenarios(t) {
		filtered := append([]BFSTask(nil), sc.tasks...)
		for i := range filtered {
			if filtered[i].Allowed == nil {
				filtered[i].Allowed = admitAll
			}
		}
		want, wantStats, err := runner.ParallelBFS(sc.g, sc.tasks,
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(13))})
		if err != nil {
			t.Fatalf("%s: nil Allowed: %v", sc.name, err)
		}
		got, gotStats, err := runner.ParallelBFS(sc.g, filtered,
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(13))})
		if err != nil {
			t.Fatalf("%s: admit-all filter: %v", sc.name, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: stats %+v with the filter, %+v with nil", sc.name, gotStats, wantStats)
		}
		for ti := 0; ti < want.NumTasks(); ti++ {
			w, o := want.Outcome(ti), got.Outcome(ti)
			if o.Len() != w.Len() {
				t.Fatalf("%s: task %d visited %d nodes with the filter, %d with nil", sc.name, ti, o.Len(), w.Len())
			}
			for j := 0; j < w.Len(); j++ {
				if o.Node(j) != w.Node(j) || o.DistAt(j) != w.DistAt(j) || o.ParentArcAt(j) != w.ParentArcAt(j) ||
					!slices.Equal(o.ChildArcsAt(j), w.ChildArcsAt(j)) {
					t.Fatalf("%s: task %d entry %d differs: node %d dist %d parent arc %d children %v with the filter, node %d dist %d parent arc %d children %v with nil",
						sc.name, ti, j, o.Node(j), o.DistAt(j), o.ParentArcAt(j), o.ChildArcsAt(j),
						w.Node(j), w.DistAt(j), w.ParentArcAt(j), w.ChildArcsAt(j))
				}
			}
		}
	}
}

// TestRunnerReuseIsStateless pins Runner reuse: a Runner that has executed
// arbitrary prior work must produce byte-identical results to a fresh one.
func TestRunnerReuseIsStateless(t *testing.T) {
	scs := equivScenarios(t)
	var reused Runner
	// Warm the reused runner on every scenario once.
	for _, sc := range scs {
		if _, _, err := reused.ParallelBFS(sc.g, sc.tasks, Options{}); err != nil {
			t.Fatalf("%s: warmup: %v", sc.name, err)
		}
	}
	for _, sc := range scs {
		var fresh Runner
		opts := Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(5))}
		want, wantStats, err := fresh.ParallelBFS(sc.g, sc.tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Rng = rand.New(rand.NewSource(5))
		got, gotStats, err := reused.ParallelBFS(sc.g, sc.tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: reused stats %+v, want %+v", sc.name, gotStats, wantStats)
		}
		for ti := 0; ti < want.NumTasks(); ti++ {
			w, g2 := want.Outcome(ti), got.Outcome(ti)
			if w.Len() != g2.Len() {
				t.Fatalf("%s: task %d sizes differ", sc.name, ti)
			}
			for i := 0; i < w.Len(); i++ {
				if w.Node(i) != g2.Node(i) || w.DistAt(i) != g2.DistAt(i) || w.ParentArcAt(i) != g2.ParentArcAt(i) {
					t.Fatalf("%s: task %d visit %d differs", sc.name, ti, i)
				}
			}
		}
	}
}

// TestFlatSchedulerMatchesSeedSparseState forces the sparse (hash + arena)
// per-task representation — the path large Borůvka phases take — and pins
// it to the seed too.
func TestFlatSchedulerMatchesSeedSparseState(t *testing.T) {
	old := denseStateLimit
	denseStateLimit = 0
	defer func() { denseStateLimit = old }()

	var runner Runner
	for _, sc := range equivScenarios(t) {
		wantBFS, wantStats, err := seedParallelBFS(sc.g, sc.tasks,
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(13))})
		if err != nil {
			t.Fatalf("%s: seed BFS: %v", sc.name, err)
		}
		label := sc.name + "/sparse"
		f, stats, err := runner.ParallelBFS(sc.g, sc.tasks,
			Options{MaxDelay: sc.maxDelay, Rng: rand.New(rand.NewSource(13))})
		if err != nil {
			t.Fatalf("%s: flat BFS: %v", label, err)
		}
		if stats != wantStats {
			t.Fatalf("%s: stats %+v, want %+v", label, stats, wantStats)
		}
		compareBFS(t, label, sc.g, wantBFS, f)
	}
}
