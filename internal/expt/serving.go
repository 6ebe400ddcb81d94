package expt

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sssp"
)

// E14Serving measures the shortcut serving layer: warm queries/sec against a
// prebuilt Snapshot across executor-pool sizes and batch sizes, versus the
// rebuild-per-query baseline (sssp.TreeApprox paying the full shortcut-MST
// construction every call), plus the cold-build vs warm-serve amortization
// point. The workload is SSSP — the query kind with the starkest
// construction-vs-serve asymmetry (Corollary 4.2's reduction builds the same
// tree every call).
func E14Serving(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E14: serving layer throughput (snapshot + pooled executors)",
		"n", "executors", "batch", "backend", "queries", "warm qps", "ms/query", "rebuild qps", "speedup", "sim rounds/query")
	var (
		snap      *serve.Snapshot
		g         *graph.Graph
		w         graph.Weights
		buildTime time.Duration
		err       error
	)
	if cfg.SnapshotIn != "" {
		// A persisted snapshot replaces the cold build: the "build" cost
		// this run pays is one mmap load.
		buildStart := time.Now()
		snap, err = serve.LoadSnapshot(cfg.SnapshotIn, serve.LoadOptions{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("E14: load %s: %w", cfg.SnapshotIn, err)
		}
		defer snap.Close()
		buildTime = time.Since(buildStart)
		g, w = snap.Graph(), snap.Weights()
	} else {
		n := cfg.DistSizes[len(cfg.DistSizes)-1]
		rng := cfg.rng(16_000_000_000)
		g, err = gen.ClusterChain(n, 6, rng)
		if err != nil {
			return nil, fmt.Errorf("E14: %w", err)
		}
		w = graph.NewUniformWeights(g.NumEdges(), rng)
		parts, err := gen.VoronoiParts(g, minInt(64, maxInt(4, n/64)), rng)
		if err != nil {
			return nil, fmt.Errorf("E14: %w", err)
		}
		// Distributed: the "sim rounds/query" column and the build note
		// report the simulated shortcut-MST's cost.
		buildStart := time.Now()
		snap, err = serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
			Rng: rng, Diameter: 6, LogFactor: cfg.LogFactor, Distributed: true, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("E14: snapshot: %w", err)
		}
		buildTime = time.Since(buildStart)
	}
	if cfg.SnapshotOut != "" {
		if err := serve.WriteSnapshotFile(cfg.SnapshotOut, snap); err != nil {
			return nil, fmt.Errorf("E14: save %s: %w", cfg.SnapshotOut, err)
		}
	}

	// Rebuild-per-query baseline: every call pays the full construction.
	rebuildQueries := 2
	if cfg.Quick {
		rebuildQueries = 1
	}
	rebuildStart := time.Now()
	for i := 0; i < rebuildQueries; i++ {
		if _, err := sssp.TreeApprox(g, w, graph.NodeID(i), sssp.TreeOptions{
			Rng: cfg.rng(int64(17_000_000_000 + i)), Diameter: 6,
			LogFactor: cfg.LogFactor, Ctx: cfg.Ctx,
		}); err != nil {
			return nil, fmt.Errorf("E14: rebuild baseline: %w", err)
		}
	}
	rebuildPer := time.Since(rebuildStart) / time.Duration(rebuildQueries)
	rebuildQPS := float64(time.Second) / float64(rebuildPer)

	// Serving goes through a Store — the epoch-pinning production shape, so
	// an instrumented run (cfg.Metrics) reports swap counts, lease pins, and
	// per-epoch trace attribution even though this sweep never swaps.
	store := serve.NewStoreWith(snap, serve.StoreOptions{Metrics: cfg.Metrics})

	// Every SSSP answer is a warm tree walk: batch 1 submits single
	// queries, larger batches submit ServeBatch groups that walk their
	// distinct roots one after another on one executor.
	var warmPer, warmSinglePer time.Duration
	for _, executors := range cfg.ServeExecutors {
		for _, batch := range cfg.ServeBatches {
			srv := serve.NewStoreServer(store, serve.ServerOptions{
				Executors: executors, Seed: cfg.Seed, Metrics: cfg.Metrics,
			})
			elapsed, simRounds, err := fireQueries(cfg.ctx(), srv, g.NumNodes(), cfg.ServeQueries, executors, batch)
			if err != nil {
				return nil, fmt.Errorf("E14 executors=%d batch=%d: %w", executors, batch, err)
			}
			per := elapsed / time.Duration(cfg.ServeQueries)
			if warmPer == 0 || per < warmPer {
				warmPer = per
			}
			if batch == 1 && (warmSinglePer == 0 || per < warmSinglePer) {
				warmSinglePer = per
			}
			qps := float64(time.Second) / float64(per)
			t.AddRow(I(g.NumNodes()), I(executors), I(batch), "library", I(cfg.ServeQueries),
				F(qps), F(float64(per)/float64(time.Millisecond)), F(rebuildQPS), F(qps/rebuildQPS),
				F(float64(simRounds)/float64(cfg.ServeQueries)))
		}
	}

	// Wire mode: the same single-query workload POSTed at a running
	// lcsserve, so the envelope records wire-vs-library overhead side by
	// side. The remote serves its own snapshot; a probe query discovers its
	// n (sources rotate modulo the remote graph, not the local one). The
	// gateway keeps a source's answer on its second miss and answers a
	// third request from it, so each configuration asks sources the run has
	// not asked yet.
	if cfg.ServeAddr != "" {
		wireN, err := probeWireN(cfg.ctx(), cfg.ServeAddr)
		if err != nil {
			return nil, fmt.Errorf("E14: -serve-addr %s: %w", cfg.ServeAddr, err)
		}
		var wirePer time.Duration
		asked := 1 // the probe
		for _, clients := range cfg.ServeExecutors {
			elapsed, simRounds, err := fireWireQueries(cfg.ctx(), cfg.ServeAddr, wireN, asked, cfg.ServeQueries, clients)
			if err != nil {
				return nil, fmt.Errorf("E14 wire clients=%d: %w", clients, err)
			}
			asked += cfg.ServeQueries
			per := elapsed / time.Duration(cfg.ServeQueries)
			if wirePer == 0 || per < wirePer {
				wirePer = per
			}
			qps := float64(time.Second) / float64(per)
			t.AddRow(I(wireN), I(clients), I(1), "wire", I(cfg.ServeQueries),
				F(qps), F(float64(per)/float64(time.Millisecond)), F(rebuildQPS), F(qps/rebuildQPS),
				F(float64(simRounds)/float64(cfg.ServeQueries)))
		}
		if warmSinglePer > 0 {
			overhead := wirePer - warmSinglePer
			t.AddNote("wire (%s): %s/query vs %s/query in-process — %s HTTP+JSON overhead",
				cfg.ServeAddr, wirePer.Round(time.Microsecond), warmSinglePer.Round(time.Microsecond),
				overhead.Round(time.Microsecond))
			t.SetMeta("wire_ms_per_query", float64(wirePer)/float64(time.Millisecond))
			t.SetMeta("wire_overhead_ms", float64(wirePer-warmSinglePer)/float64(time.Millisecond))
		}
		t.AddNote("wire rows assume a gateway not already asked these sources: the run's k-th wire query asks source 31k mod n (the probe is k = 0), so a run of at most 2n/gcd(n, 31) wire queries asks no source a third time, when the gateway would answer it from its sssp cache")
	}

	serve.RecordCost(cfg.Metrics, snap.Cost())
	rounds, messages, phases := snap.BuildCost()
	acquired := "build"
	if cfg.SnapshotIn != "" {
		acquired = "load (persisted snapshot)"
	}
	t.AddNote("snapshot %s: %s (simulated: %d rounds, %d messages, %d MST phases) — paid once",
		acquired, buildTime.Round(time.Millisecond), rounds, messages, phases)
	if delta := rebuildPer - warmPer; delta > 0 {
		breakEven := float64(buildTime) / float64(delta)
		t.AddNote("amortization: build (%s) breaks even after %.1f queries vs rebuild-per-query (%s/query)",
			buildTime.Round(time.Millisecond), breakEven, rebuildPer.Round(time.Millisecond))
	}
	t.AddNote("sim rounds/query is the marginal simulated cost charged to every answer, batched or not (sssp.TreeServeCost); E10 measures the scheduling of many BFS tasks")
	t.AddNote("backend: library calls the server in-process; wire POSTs to -serve-addr")
	t.SetMeta("build_ms", float64(buildTime)/float64(time.Millisecond))
	t.SetMeta("rebuild_ms_per_query", float64(rebuildPer)/float64(time.Millisecond))
	return t, nil
}

// fireQueries drives q SSSP queries at the server from `executors`
// concurrent clients: batch == 1 submits them individually, batch > 1 as
// ServeBatch groups of that size (each group occupies one pooled executor,
// so concurrent clients are what exercise the pool). Returns wall-clock time
// and the simulated rounds summed over every answer.
func fireQueries(ctx context.Context, srv *serve.Server, n, q, executors, batch int) (time.Duration, int64, error) {
	if batch <= 0 {
		batch = 1
	}
	if executors <= 0 {
		executors = 1
	}
	groups := (q + batch - 1) / batch
	per := (groups + executors - 1) / executors
	var (
		simRounds int64
		wg        sync.WaitGroup
		mu        sync.Mutex
	)
	errs := make(chan error, executors)
	start := time.Now()
	for c := 0; c < executors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local int64
			for gi := c * per; gi < minInt((c+1)*per, groups); gi++ {
				lo := gi * batch
				size := minInt(batch, q-lo)
				if batch == 1 {
					a, err := srv.ServeCtx(ctx, serve.SSSPQuery{Source: graph.NodeID(lo * 31 % n)})
					if err != nil {
						errs <- err
						return
					}
					local += int64(a.(*serve.SSSPAnswer).Rounds)
					continue
				}
				queries := make([]serve.Query, size)
				for i := range queries {
					queries[i] = serve.SSSPQuery{Source: graph.NodeID((lo + i) * 31 % n)}
				}
				answers, err := srv.ServeBatchCtx(ctx, queries)
				if err != nil {
					errs <- err
					return
				}
				for _, a := range answers {
					local += int64(a.(*serve.SSSPAnswer).Rounds)
				}
			}
			mu.Lock()
			simRounds += local
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, 0, err
	}
	return time.Since(start), simRounds, nil
}

// postWireQuery POSTs one SSSP query at addr's /v1/query and reads the
// answer with gateway.ReadQueryResponse: a non-200 status is a typed error
// (429 KindBudgetExceeded, 504 KindDeadline, …), an undecodable 200
// KindCorrupt.
func postWireQuery(ctx context.Context, client *http.Client, addr string, src int) (*gateway.QueryResponse, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	body := fmt.Sprintf(`{"kind":"sssp","source":%d}`, src)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	return gateway.ReadQueryResponse("expt.wire", resp)
}

// probeWireN fires one query at the remote server to learn its graph size:
// the run's wire query 0, which asks source 0.
func probeWireN(ctx context.Context, addr string) (int, error) {
	ans, err := postWireQuery(ctx, http.DefaultClient, addr, 0)
	if err != nil {
		return 0, err
	}
	if ans.SSSP == nil || len(ans.SSSP.Dist) == 0 {
		return 0, fmt.Errorf("probe answer has no dist vector")
	}
	return len(ans.SSSP.Dist), nil
}

// fireWireQueries is fireQueries' wire twin: q single SSSP queries POSTed at
// a running lcsserve from `clients` concurrent connections, on the same
// rotating schedule continued from the run's wire query first: query i
// asks source (first+i)·31 mod n. Returns wall-clock time and summed
// simulated rounds as reported by the server.
func fireWireQueries(ctx context.Context, addr string, n, first, q, clients int) (time.Duration, int64, error) {
	if clients <= 0 {
		clients = 1
	}
	per := (q + clients - 1) / clients
	var (
		simRounds int64
		wg        sync.WaitGroup
		mu        sync.Mutex
	)
	client := &http.Client{}
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local int64
			for i := c * per; i < minInt((c+1)*per, q); i++ {
				ans, err := postWireQuery(ctx, client, addr, (first+i)*31%n)
				if err != nil {
					errs <- err
					return
				}
				local += int64(ans.Rounds)
			}
			mu.Lock()
			simRounds += local
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, 0, err
	}
	return time.Since(start), simRounds, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
