package mst

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/sched"
	"repro/internal/shortcut"
)

// DistOptions configures the distributed MST computation.
type DistOptions struct {
	// Rng drives shortcut sampling and scheduling. Required.
	Rng *rand.Rand
	// Diameter is the graph diameter used to derive shortcut parameters
	// (0 = double-sweep estimate).
	Diameter int
	// LogFactor as in shortcut.Options.
	LogFactor float64
	// Baseline selects the GH16 O(D+√n) shortcuts instead of the paper's
	// construction — the comparison arm of experiment E6. Either way the
	// shortcuts are computed centrally and only the framework phases (MWOE
	// convergecast, result broadcast, fragment-ID exchange) are simulated
	// and charged — the per-phase costs that dominate the framework.
	Baseline bool
	// MaxRounds bounds each scheduled phase (0 = default).
	MaxRounds int
	// Ctx, when non-nil, cancels the computation cooperatively: every
	// simulated round barrier and scheduler drain step checks it, so the
	// run aborts within one round of cancellation with a
	// reproerr.KindCanceled/KindDeadline error.
	Ctx context.Context
}

// DistResult reports the distributed MST outcome with cost accounting.
type DistResult struct {
	Tree   []graph.EdgeID
	Weight float64
	Phases int
	// Cost is the unified v2 accounting. Rounds/Messages aggregate all
	// simulated phases (the shortcut-construction rounds are excluded,
	// except the baseline's one global BFS);
	// SchedStats carries the last scheduled phase's realized drain stats
	// plus the worst per-arc load and queueing across all phases; Wall is
	// the real duration. Field promotion keeps v1 accessors intact.
	cost.Cost
	// QualitySum records the worst shortcut quality (c + d upper bound)
	// observed across phases, the quantity Fact 4.1 ties the round
	// complexity to.
	QualitySum int
}

// Scratch owns the reusable state of Distributed and Kruskal: the
// random-delay Runner, the BFS extraction forest and the winners buffer of
// the one, the radix-sort keys and the union-find of the other. The zero
// value is ready to use. Distributed and Kruskal allocate a fresh one per
// call; a caller that runs many MST computations in a row holds one Scratch
// and calls DistributedScratch or KruskalScratch, so the buffers amortize
// across calls, not just across Borůvka phases. Its one such caller is
// mincut.Approx's packing loop, which threads one Scratch through all of
// its MST calls. A Scratch holds no reference to the weights it last saw,
// and must not be used concurrently.
type Scratch struct {
	sr      sched.Runner
	forest  sched.BFSForest
	winners []sched.AggValue

	keys, keysTmp []uint64
	ids, idsTmp   []graph.EdgeID
	uf            UnionFind
}

// Distributed computes the MST with Borůvka phases driven by low-congestion
// shortcuts (Fact 4.1 / Corollary 1.2): each phase builds shortcuts for the
// current fragment partition, grows BFS trees in every augmented subgraph
// under random-delay scheduling, convergecasts each fragment's minimum-
// weight outgoing edge, broadcasts the winners, and merges.
func Distributed(g *graph.Graph, w graph.Weights, opts DistOptions) (*DistResult, error) {
	var scratch Scratch
	return DistributedScratch(g, w, opts, &scratch)
}

// DistributedScratch is Distributed with caller-owned reusable state.
// Results are identical to Distributed.
func DistributedScratch(g *graph.Graph, w graph.Weights, opts DistOptions, scratch *Scratch) (*DistResult, error) {
	const op = "mst.Distributed"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	if err := w.Validate(g); err != nil {
		return nil, reproerr.New(op, reproerr.KindInvalidInput, err)
	}
	start := time.Now()
	n := g.NumNodes()
	if n == 0 {
		return &DistResult{}, nil
	}
	d := opts.Diameter
	if d == 0 {
		lo, _ := graph.DiameterBounds(g)
		d = int(lo)
		if d < 1 {
			d = 1
		}
	}

	res := &DistResult{}
	uf := NewUnionFind(n)
	// Scheduler state reused across phases — and, via DistributedScratch,
	// across whole queries (runner, extraction forest, winners buffer):
	// allocation-free steady state.
	sr := &scratch.sr
	forest := &scratch.forest
	winners := scratch.winners

	for {
		fragments := fragmentLists(g, uf)
		if len(fragments) <= 1 {
			break
		}
		p, err := shortcut.NewPartition(g, fragments)
		if err != nil {
			return nil, fmt.Errorf("mst: phase %d partition: %w", res.Phases, err)
		}

		var sc *shortcut.Shortcuts
		if opts.Baseline {
			sc = shortcut.GhaffariHaeupler(p, 0)
			// Charge the baseline's construction: one global BFS.
			res.AddSim(int(sc.Params.Diameter), int64(g.NumEdges()))
		} else {
			sc, err = shortcut.Build(g, p, shortcut.Options{
				Diameter:  d,
				LogFactor: opts.LogFactor,
				Rng:       opts.Rng,
				Ctx:       opts.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("mst: phase %d shortcuts: %w", res.Phases, err)
			}
		}

		// One round in which neighbors exchange fragment IDs, so that every
		// node knows which incident edges are outgoing.
		res.AddSim(1, int64(g.NumArcs()))

		var qualityHint int
		winners, qualityHint, err = mwoePhase(g, w, p, sc, uf, opts, sr, forest, winners, res)
		scratch.winners = winners
		if err != nil {
			return nil, fmt.Errorf("mst: phase %d MWOE: %w", res.Phases, err)
		}
		if qualityHint > res.QualitySum {
			res.QualitySum = qualityHint
		}

		merged := false
		for _, e := range winners {
			if !e.Valid {
				continue
			}
			u, v := g.EdgeEndpoints(e.Edge)
			if uf.Union(u, v) {
				res.Tree = append(res.Tree, e.Edge)
				merged = true
			}
		}
		res.Phases++
		if !merged {
			break // disconnected graph: spanning forest complete
		}
	}
	res.Weight = w.Total(res.Tree)
	res.Wall = time.Since(start)
	return res, nil
}

// mwoePhase grows BFS trees in the augmented subgraphs, convergecasts the
// fragment MWOEs and broadcasts the winners, charging all simulated rounds.
func mwoePhase(
	g *graph.Graph,
	w graph.Weights,
	p *shortcut.Partition,
	sc *shortcut.Shortcuts,
	uf *UnionFind,
	opts DistOptions,
	sr *sched.Runner,
	forest *sched.BFSForest,
	winners []sched.AggValue,
	res *DistResult,
) ([]sched.AggValue, int, error) {
	n := g.NumNodes()
	kd := sc.Params.KD
	if kd < 1 {
		kd = math.Sqrt(float64(n)) // baseline shortcuts: GH threshold scale
	}
	depthLimit := int32(math.Ceil(shortcut.DepthFactor*kd*math.Log2(float64(n)))) + 1

	// Per-part allowed-edge bitsets: Hi plus the induced intra-part edges.
	numParts := p.NumParts()
	tasks := make([]sched.BFSTask, numParts)
	for i := 0; i < numParts; i++ {
		pi := int32(i)
		switch len(sc.H[i]) {
		case 0:
			// Small part: the augmented subgraph is just G[Si]; checking
			// part membership avoids allocating a bitset per fragment
			// (critical in early Borůvka phases with Θ(n) fragments).
			tasks[i] = sched.BFSTask{
				Root: p.Part(i).Leader,
				Allowed: func(_ int32, u, v graph.NodeID, _ graph.EdgeID) bool {
					return p.PartOf(u) == pi && p.PartOf(v) == pi
				},
				DepthLimit: depthLimit,
			}
			continue
		case g.NumEdges():
			// Hi = E (a saturated build; H lists hold no duplicates): the
			// augmented subgraph is all of G, the scheduler's admit-all path.
			tasks[i] = sched.BFSTask{Root: p.Part(i).Leader, DepthLimit: depthLimit}
			continue
		}
		allowed := graph.NewBitset(g.NumEdges())
		for _, e := range sc.H[i] {
			allowed.Set(e)
		}
		for _, u := range p.Part(i).Nodes {
			g.Arcs(u, func(_ int32, v graph.NodeID, e graph.EdgeID) bool {
				if p.PartOf(v) == pi {
					allowed.Set(e)
				}
				return true
			})
		}
		a := allowed
		tasks[i] = sched.BFSTask{
			Root:       p.Part(i).Leader,
			Allowed:    func(_ int32, _, _ graph.NodeID, e graph.EdgeID) bool { return a.Has(e) },
			DepthLimit: depthLimit,
		}
	}
	st, err := sr.ParallelBFSInto(forest, g, tasks, sched.Options{
		MaxDelay:  int(math.Ceil(kd)),
		Rng:       opts.Rng,
		MaxRounds: opts.MaxRounds,
		Ctx:       opts.Ctx,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("scheduled BFS: %w", err)
	}
	out := forest
	res.AddSched(st)

	// Dilation realized by the trees + realized congestion ⇒ quality hint.
	var deepest int32
	for i := 0; i < out.NumTasks(); i++ {
		o := out.Outcome(i)
		for j := 0; j < o.Len(); j++ {
			if dist := o.DistAt(j); dist > deepest {
				deepest = dist
			}
		}
	}
	qualityHint := st.MaxArcLoad + int(deepest)

	aggTasks := make([]sched.AggTask, numParts)
	for i := 0; i < numParts; i++ {
		o := out.Outcome(i)
		local := make([]sched.AggValue, o.Len())
		for j := range local {
			v := o.Node(j)
			best := sched.AggValue{}
			if p.PartOf(v) == int32(i) {
				rv := uf.Find(v)
				g.Arcs(v, func(_ int32, u graph.NodeID, e graph.EdgeID) bool {
					if uf.Find(u) == rv {
						return true
					}
					cand := sched.AggValue{Weight: w[e], Edge: e, Valid: true}
					if cand.Better(best) {
						best = cand
					}
					return true
				})
			}
			local[j] = best
		}
		aggTasks[i] = sched.AggTask{
			Root:  p.Part(i).Leader,
			Tree:  o,
			Local: local,
		}
	}
	winners, st2, err := sr.ParallelMinAggregateInto(winners, g, aggTasks, sched.Options{
		MaxDelay:  int(math.Ceil(kd)),
		Rng:       opts.Rng,
		MaxRounds: opts.MaxRounds,
		Ctx:       opts.Ctx,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("MWOE aggregate: %w", err)
	}
	res.AddSched(st2)
	return winners, qualityHint, nil
}

// fragmentLists groups nodes into their current fragments.
func fragmentLists(g *graph.Graph, uf *UnionFind) [][]graph.NodeID {
	n := g.NumNodes()
	byRoot := make(map[int32][]graph.NodeID)
	for v := 0; v < n; v++ {
		r := uf.Find(int32(v))
		byRoot[r] = append(byRoot[r], graph.NodeID(v))
	}
	out := make([][]graph.NodeID, 0, len(byRoot))
	// Deterministic order: fragments appear by their smallest member
	// (node IDs are scanned in increasing order).
	seen := make(map[int32]bool, len(byRoot))
	for v := 0; v < n; v++ {
		r := uf.Find(int32(v))
		if !seen[r] {
			seen[r] = true
			out = append(out, byRoot[r])
		}
	}
	return out
}
