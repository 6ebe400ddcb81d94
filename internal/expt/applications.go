package expt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/mst"
	"repro/internal/sched"
	"repro/internal/shortcut"
	"repro/internal/sssp"
	"repro/internal/twoecss"
)

// E6MST measures distributed MST rounds via our shortcuts against the GH16
// baseline on diameter-D cluster-chain graphs (Corollary 1.2). Correctness
// is asserted against Kruskal inside the experiment.
func E6MST(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E6: distributed MST rounds (ours vs GH16 baseline)",
		"D", "n", "kD", "ours rounds", "GH16 rounds", "ratio", "phases", "correct")
	ds := cfg.Diameters
	for _, d := range ds {
		if d < 2 {
			continue
		}
		for _, n := range cfg.DistSizes {
			rng := cfg.rng(int64(6_000_000_000 + d*1_000_000 + n))
			g, err := gen.ClusterChain(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E6 D=%d n=%d: %w", d, n, err)
			}
			w := graph.NewUniformWeights(g.NumEdges(), rng)
			want, err := mst.Kruskal(g, w)
			if err != nil {
				return nil, err
			}
			ours, err := mst.Distributed(g, w, mst.DistOptions{
				Rng: cfg.rng(int64(d*31 + n)), Diameter: d, LogFactor: cfg.LogFactor, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E6 ours D=%d n=%d: %w", d, n, err)
			}
			base, err := mst.Distributed(g, w, mst.DistOptions{
				Rng: cfg.rng(int64(d*37 + n)), Diameter: d, Baseline: true, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E6 baseline D=%d n=%d: %w", d, n, err)
			}
			correct := math.Abs(ours.Weight-w.Total(want)) < 1e-6 &&
				math.Abs(base.Weight-w.Total(want)) < 1e-6
			kd := gen.KD(g.NumNodes(), d)
			t.AddRow(I(d), I(g.NumNodes()), F(kd), I(ours.Rounds), I(base.Rounds),
				F(float64(ours.Rounds)/float64(base.Rounds)), I(ours.Phases),
				fmt.Sprintf("%v", correct))
		}
	}
	t.AddNote("rounds cover the framework phases (fragment-ID exchange, scheduled BFS, MWOE convergecast+broadcast) per Borůvka phase")
	return t, nil
}

// E7MinCut measures the tree-packing approximation on planted-cut instances
// (two dense blobs joined by a known number of crossing edges, so the
// minimum cut is the planted value): ratio against the exact value and
// simulated rounds (Corollary 1.2).
func E7MinCut(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E7: approximate min cut (tree packing over shortcut-MST, planted cut)",
		"n", "planted", "exact(SW)", "approx", "ratio", "trees", "rounds")
	for _, n := range cfg.DistSizes {
		if n > 2000 {
			continue
		}
		rng := cfg.rng(int64(7_000_000_000 + n))
		g, w, planted, err := plantedCutInstance(n/2, 6, rng)
		if err != nil {
			return nil, fmt.Errorf("E7 n=%d: %w", n, err)
		}
		exactStr := "-"
		reference := planted
		if g.NumNodes() <= 900 {
			exact, _, err := mincut.StoerWagner(g, w)
			if err != nil {
				return nil, fmt.Errorf("E7 n=%d: %w", n, err)
			}
			exactStr = F(exact)
			reference = exact
		}
		trees := int(math.Ceil(2 * math.Log2(float64(g.NumNodes()))))
		res, err := mincut.Approx(g, w, mincut.ApproxOptions{
			Rng: rng, Trees: trees, LogFactor: cfg.LogFactor,
			Distributed: true, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("E7 n=%d: %w", n, err)
		}
		t.AddRow(I(g.NumNodes()), F(planted), exactStr, F(res.Value),
			F(res.Value/reference), I(res.Trees), I(res.Rounds))
	}
	t.AddNote("guarantee is 2(1+eps); the paper's (1+eps) variant [Gha17] is substituted per DESIGN.md")
	t.AddNote("exact(SW) computed only at n <= 900 (O(n^3) oracle); larger rows use the planted value")
	return t, nil
}

// plantedCutInstance builds two random dense blobs of `half` nodes joined by
// `cross` unit-weight edges; the minimum cut equals cross by construction.
func plantedCutInstance(half, cross int, rng *rand.Rand) (*graph.Graph, graph.Weights, float64, error) {
	b := graph.NewBuilder(2 * half)
	// Every blob node gets ≥ 2·cross chords so that no internal cut can be
	// lighter than the planted one (each node's degree alone exceeds cross).
	blob := func(base int) {
		for i := 0; i+1 < half; i++ {
			b.TryAddEdge(graph.NodeID(base+i), graph.NodeID(base+i+1))
		}
		for i := 0; i < half; i++ {
			added := 0
			for added < 2*cross {
				j := rng.Intn(half)
				if j != i && b.TryAddEdge(graph.NodeID(base+i), graph.NodeID(base+j)) {
					added++
				}
			}
		}
	}
	blob(0)
	blob(half)
	added := 0
	for added < cross {
		if b.TryAddEdge(graph.NodeID(rng.Intn(half)), graph.NodeID(half+rng.Intn(half))) {
			added++
		}
	}
	g := b.Build()
	return g, graph.NewUnitWeights(g.NumEdges()), float64(cross), nil
}

// E8Messages fits the total message complexity of the distributed
// construction against m·kD (the paper's §1 open problem notes the
// ˜O(m·n^((D-2)/(2D-2))) bound of the given algorithm).
func E8Messages(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E8: message complexity of the distributed construction",
		"D", "n", "m", "kD", "messages", "messages/(m*kD)")
	var xs, ys []float64
	for _, d := range cfg.Diameters {
		for _, n := range cfg.DistSizes {
			rng := cfg.rng(int64(8_000_000_000 + d*1_000_000 + n))
			hi, p, err := hardCase(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E8 D=%d n=%d: %w", d, n, err)
			}
			res, err := shortcut.BuildDistributed(hi.G, p, shortcut.DistOptions{
				Rng: rng, LogFactor: cfg.LogFactor, KnownDiameter: d, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E8 D=%d n=%d: %w", d, n, err)
			}
			m := float64(hi.G.NumEdges())
			kd := res.S.Params.KD
			t.AddRow(I(d), I(hi.G.NumNodes()), I(hi.G.NumEdges()), F(kd),
				fmt.Sprintf("%d", res.Messages), F(float64(res.Messages)/(m*kd)))
			xs = append(xs, m*kd)
			ys = append(ys, float64(res.Messages))
		}
	}
	t.AddNote("pooled log-log slope of messages vs m*kD: %.3f (theory: 1.0 up to polylog)", Slope(xs, ys))
	return t, nil
}

// E10Scheduler measures the random-delay scheduler against the
// O(c + d·log n) bound of Theorem 2.1 on N parallel BFS tasks.
func E10Scheduler(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E10: random-delay scheduling (Theorem 2.1)",
		"n", "tasks", "c (realized)", "d (realized)", "rounds", "c+d*log2(n)", "rounds/bound")
	taskCounts := []int{4, 8, 16, 32}
	if cfg.Quick {
		taskCounts = []int{4, 8}
	}
	n := cfg.DistSizes[len(cfg.DistSizes)-1]
	rng := cfg.rng(10_000_000_000)
	g, err := gen.ClusterChain(n, 6, rng)
	if err != nil {
		return nil, fmt.Errorf("E10: %w", err)
	}
	type schedRun struct {
		Tasks int         `json:"tasks"`
		Stats sched.Stats `json:"stats"`
	}
	var runs []schedRun
	for _, k := range taskCounts {
		tasks := make([]sched.BFSTask, k)
		for i := range tasks {
			tasks[i] = sched.BFSTask{
				Root:       graph.NodeID(rng.Intn(g.NumNodes())),
				DepthLimit: 8,
			}
		}
		out, stats, err := sched.ParallelBFS(g, tasks, sched.Options{MaxDelay: k, Rng: rng})
		if err != nil {
			return nil, fmt.Errorf("E10 k=%d: %w", k, err)
		}
		var deepest int32
		for i := 0; i < out.NumTasks(); i++ {
			o := out.Outcome(i)
			for j := 0; j < o.Len(); j++ {
				if dist := o.DistAt(j); dist > deepest {
					deepest = dist
				}
			}
		}
		bound := float64(stats.MaxArcLoad) + float64(deepest)*math.Log2(float64(g.NumNodes()))
		t.AddRow(I(g.NumNodes()), I(k), I(stats.MaxArcLoad), I(int(deepest)),
			I(stats.Rounds), F(bound), F(float64(stats.Rounds)/bound))
		runs = append(runs, schedRun{Tasks: k, Stats: stats})
	}
	t.SetMeta("sched_runs", runs)
	return t, nil
}

// E12SSSP compares the shortcut-tree approximate SSSP with distributed
// Bellman–Ford (Corollary 4.2's reduction shape). The workload is the one
// the corollary targets: a small-diameter graph whose *shortest-path tree*
// has large hop depth — hard-instance bottom paths carry very light edges,
// so shortest paths wander along Θ(√n)-hop paths and Bellman–Ford needs
// Θ(√n) rounds while the shortcut route needs ˜O(kD·polylog).
func E12SSSP(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E12: approximate SSSP (shortcut tree) vs Bellman-Ford",
		"D", "n", "SP-tree hop depth", "BF rounds", "tree rounds", "stretch", "speedup")
	var bfXs, bfYs, trXs, trYs []float64
	d := 4
	for _, n := range cfg.DistSizes {
		rng := cfg.rng(int64(12_000_000_000 + n))
		hi, err := gen.NewHardInstance(n, d, 0, 0, rng)
		if err != nil {
			return nil, fmt.Errorf("E12 n=%d: %w", n, err)
		}
		g := hi.G
		// Path edges are ~1000x lighter than the upward edges: shortest
		// paths follow the bottom paths hop by hop.
		w := make(graph.Weights, g.NumEdges())
		for e := range w {
			w[e] = 1 + rng.Float64()
		}
		for _, path := range hi.Paths {
			for j := 0; j+1 < len(path); j++ {
				if e, ok := g.FindEdge(path[j], path[j+1]); ok {
					w[e] = 0.001 * (1 + rng.Float64())
				}
			}
		}
		src := hi.Paths[0][0]
		exact, err := sssp.Dijkstra(g, w, src)
		if err != nil {
			return nil, err
		}
		_, bfStats, err := sssp.BellmanFord(g, w, src, congest.Options{MaxRounds: 1 << 22, Ctx: cfg.Ctx})
		if err != nil {
			return nil, fmt.Errorf("E12 BF n=%d: %w", n, err)
		}
		res, err := sssp.TreeApprox(g, w, src, sssp.TreeOptions{
			Rng: rng, Diameter: d, LogFactor: cfg.LogFactor, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("E12 tree n=%d: %w", n, err)
		}
		stretch := sssp.Stretch(exact, res.Dist)
		t.AddRow(I(d), I(g.NumNodes()), I(hi.PathLen-1), I(bfStats.Rounds), I(res.Rounds),
			F(stretch), F(float64(bfStats.Rounds)/float64(res.Rounds)))
		bfXs = append(bfXs, float64(g.NumNodes()))
		bfYs = append(bfYs, float64(bfStats.Rounds))
		trXs = append(trXs, float64(g.NumNodes()))
		trYs = append(trYs, float64(res.Rounds))
	}
	t.AddNote("stretch is measured (no worst-case guarantee for the MST tree); [HL18] substituted per DESIGN.md")
	t.AddNote("tree rounds = simulated MST rounds + log n fragment-contraction phases charged at measured quality")
	t.AddNote("Bellman-Ford log-log slope %.3f (theory 1/2 on this family); at feasible n its constants win — the reproducible claim is the exponent gap", Slope(bfXs, bfYs))
	return t, nil
}

// E13TwoECSS measures the 2-ECSS approximation ratio and distributed cost
// (Corollary 4.3's reduction shape).
func E13TwoECSS(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E13: 2-ECSS approximation (MST + greedy bridge cover)",
		"n", "edges in G", "edges kept", "weight", "lower bound", "ratio", "rounds")
	for _, n := range cfg.DistSizes {
		rng := cfg.rng(int64(13_000_000_000 + n))
		// Density high enough that the ER graph is 2-edge-connected w.h.p.
		g := gen.ErdosRenyi(n, math.Max(0.002, 8/float64(n)), rng)
		if len(twoecss.Bridges(g, allEdgeIDs(g))) > 0 {
			continue
		}
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		res, err := twoecss.Approx(g, w, twoecss.Options{
			Rng: rng, LogFactor: cfg.LogFactor, Distributed: true, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("E13 n=%d: %w", n, err)
		}
		t.AddRow(I(g.NumNodes()), I(g.NumEdges()), I(len(res.Edges)), F(res.Weight),
			F(res.LowerBound), F(res.Ratio()), I(res.Rounds))
	}
	t.AddNote("lower bound = MST weight; ratio is an upper bound on the true approximation factor")
	return t, nil
}

// A2Scheduling is the ablation on random start delays: with delays disabled
// all tasks contend immediately.
func A2Scheduling(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("A2: random-delay ablation",
		"n", "tasks", "delayed rounds", "no-delay rounds", "delayed maxQ", "no-delay maxQ")
	n := cfg.DistSizes[0]
	rng := cfg.rng(15_000_000_000)
	g, err := gen.ClusterChain(n, 5, rng)
	if err != nil {
		return nil, fmt.Errorf("A2: %w", err)
	}
	type schedRun struct {
		Tasks   int         `json:"tasks"`
		Delayed sched.Stats `json:"delayed"`
		NoDelay sched.Stats `json:"no_delay"`
	}
	var runs []schedRun
	for _, k := range []int{8, 24} {
		tasks := make([]sched.BFSTask, k)
		for i := range tasks {
			tasks[i] = sched.BFSTask{Root: graph.NodeID(rng.Intn(g.NumNodes())), DepthLimit: 6}
		}
		with, wStats, err := sched.ParallelBFS(g, tasks, sched.Options{MaxDelay: 2 * k, Rng: rng})
		if err != nil {
			return nil, err
		}
		_ = with
		without, oStats, err := sched.ParallelBFS(g, tasks, sched.Options{})
		if err != nil {
			return nil, err
		}
		_ = without
		t.AddRow(I(g.NumNodes()), I(k), I(wStats.Rounds), I(oStats.Rounds),
			I(wStats.MaxQueue), I(oStats.MaxQueue))
		runs = append(runs, schedRun{Tasks: k, Delayed: wStats, NoDelay: oStats})
	}
	t.SetMeta("sched_runs", runs)
	t.AddNote("delays smooth the per-edge queue peaks; without them all tasks contend at start")
	return t, nil
}

func allEdgeIDs(g *graph.Graph) []graph.EdgeID {
	edges := make([]graph.EdgeID, g.NumEdges())
	for e := range edges {
		edges[e] = graph.EdgeID(e)
	}
	return edges
}
