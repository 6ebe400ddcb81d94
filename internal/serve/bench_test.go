package serve_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sssp"
	"repro/internal/twoecss"
)

// benchFixture caches one snapshot per graph size: the build is the
// expensive step being amortized, so benchmarks share it.
type benchFixture struct {
	g    *graph.Graph
	w    graph.Weights
	snap *serve.Snapshot
	srv  *serve.Server
}

var (
	benchMu  sync.Mutex
	benchFix = map[int]*benchFixture{}
)

func getBenchFixture(b *testing.B, n int) *benchFixture {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if fx, ok := benchFix[n]; ok {
		return fx
	}
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ClusterChain(n, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 64, rng)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
		Rng: rng, Diameter: 6, LogFactor: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	fx := &benchFixture{g: g, w: w, snap: snap, srv: serve.NewServer(snap, serve.ServerOptions{Executors: 4})}
	benchFix[n] = fx
	return fx
}

// BenchmarkServeSSSPWarmInto is the allocation-free warm path; CI's
// benchmark smoke asserts 0 allocs/op on it.
func BenchmarkServeSSSPWarmInto(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	// One executor, so the warm-up call below warms the same context every
	// timed iteration checks out.
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	dst := make([]float64, fx.g.NumNodes())
	var err error
	if dst, err = srv.ServeSSSPInto(dst, 0); err != nil { // warm the executor
		b.Fatal(err)
	}
	// Collect the fixture-build and warm-up garbage now: at -benchtime=1x the
	// timed window is a few milliseconds, and a background GC cycle landing
	// inside it shows up as spurious allocs/op in CI's zero-alloc gate.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = srv.ServeSSSPInto(dst, graph.NodeID(i%fx.g.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSSSPWarmIntoInstrumented is the same warm path with a live
// metrics registry attached: latency/queue-wait observations and a
// trace-ring record per query. CI's benchmark smoke asserts
// this stays at 0 allocs/op too — instrumentation must never reintroduce
// steady-state allocation.
func BenchmarkServeSSSPWarmIntoInstrumented(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1, Metrics: reg})
	dst := make([]float64, fx.g.NumNodes())
	var err error
	if dst, err = srv.ServeSSSPInto(dst, 0); err != nil { // warm the executor
		b.Fatal(err)
	}
	runtime.GC() // keep background GC out of the 1x timed window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = srv.ServeSSSPInto(dst, graph.NodeID(i%fx.g.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if reg.Traces() == nil {
		b.Fatal("instrumented run recorded no traces")
	}
}

// BenchmarkServeSSSPWarm is the allocating single-query path (fresh output
// slice per answer).
func BenchmarkServeSSSPWarm(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.srv.Serve(serve.SSSPQuery{Source: graph.NodeID(i % fx.g.NumNodes())}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSSSPBatch32 answers 32 sources per ServeBatch call — one
// executor checkout per batch and one tree walk per source.
func BenchmarkServeSSSPBatch32(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	queries := make([]serve.Query, 32)
	for i := range queries {
		queries[i] = serve.SSSPQuery{Source: graph.NodeID(i * 17 % fx.g.NumNodes())}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.srv.ServeBatch(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSSPRebuildPerQuery is the pre-serving baseline: every query pays
// the full shortcut-MST construction (sssp.TreeApprox).
func BenchmarkSSSPRebuildPerQuery(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sssp.TreeApprox(fx.g, fx.w, graph.NodeID(i%fx.g.NumNodes()), sssp.TreeOptions{
			Rng: rand.New(rand.NewSource(int64(i))), Diameter: 6, LogFactor: 0.3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAmortization100k is the acceptance measurement on ClusterChain
// n=1e5: warm-serve vs rebuild-per-query SSSP (run explicitly, not part of
// CI's smoke). Recorded run (-benchtime=3x): warm-into 1.26 ms/query at
// 0 allocs/op vs rebuild 24.66 s/query — ~19,500× more queries/sec.
func BenchmarkAmortization100k(b *testing.B) {
	fx := getBenchFixture(b, 100_000)
	b.Run("warm-into", func(b *testing.B) {
		srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
		dst := make([]float64, fx.g.NumNodes())
		var err error
		if dst, err = srv.ServeSSSPInto(dst, 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dst, err = srv.ServeSSSPInto(dst, graph.NodeID(i%fx.g.NumNodes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := sssp.TreeApprox(fx.g, fx.w, graph.NodeID(i%fx.g.NumNodes()), sssp.TreeOptions{
				Rng: rand.New(rand.NewSource(int64(i))), Diameter: 6, LogFactor: 0.3,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// erSnapshotFixture draws servebench's n-node fixture: an Erdős–Rényi
// graph with edge probability 12/n, connected and bridge-free, uniform
// weights, max(4, min(64, n/64)) Voronoi parts, and the build seed, from the
// same seeded stream servebench draws them from.
func erSnapshotFixture(b *testing.B, n int) (*graph.Graph, graph.Weights, [][]graph.NodeID, int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(20_210_721 + int64(n)))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, 12/float64(n), rng)
		all := make([]graph.EdgeID, g.NumEdges())
		for e := range all {
			all[e] = graph.EdgeID(e)
		}
		if graph.IsConnected(g) && len(twoecss.Bridges(g, all)) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, max(4, min(64, n/64)), rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, w, parts, rng.Int63()
}

// benchNewSnapshot times the default build (the tree from the Borůvka
// mirror, no simulated MST) of one fixture, each iteration from the same
// build seed.
func benchNewSnapshot(b *testing.B, g *graph.Graph, w graph.Weights, parts [][]graph.NodeID, buildSeed int64, diameter int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
			Rng: rand.New(rand.NewSource(buildSeed)), Diameter: diameter,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSnapshot is the snapshot build at lib-batch-sweep's shape, on
// the fixture servebench draws at n=4000 (erSnapshotFixture). At its
// double-sweep diameter of 5 the sampling probability saturates at 1. Run
// it with -benchmem; it is not one of CI's 0 allocs/op gates.
func BenchmarkNewSnapshot(b *testing.B) {
	g, w, parts, buildSeed := erSnapshotFixture(b, 4000)
	benchNewSnapshot(b, g, w, parts, buildSeed, 0)
}

// BenchmarkNewSnapshotSampled is the snapshot build where Step 2 draws:
// er2000 is the fixture servebench's wire-sssp and lib-mixed-swap
// workloads build (n=2000, D=4, p≈0.60, 31 large parts), hard-d3 the
// hard instance at n≈4000 and D=3 (p≈0.13, its paths as parts).
func BenchmarkNewSnapshotSampled(b *testing.B) {
	b.Run("er2000", func(b *testing.B) {
		g, w, parts, buildSeed := erSnapshotFixture(b, 2000)
		benchNewSnapshot(b, g, w, parts, buildSeed, 0)
	})
	b.Run("hard-d3", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		hi, err := gen.NewHardInstance(4000, 3, 0, 0, rng)
		if err != nil {
			b.Fatal(err)
		}
		w := graph.NewUniformWeights(hi.G.NumEdges(), rng)
		benchNewSnapshot(b, hi.G, w, hi.Paths, rng.Int63(), 3)
	})
}

// BenchmarkServeMinCut is the query lib-mixed-swap's set-up warms up with:
// a default MinCutQuery through ServeCtx on servebench's n=2000 fixture and
// default build, from a server with servebench's seed. It packs
// ⌈2·log2 n⌉ = 22 trees, the snapshot's tree first. Run it with -benchmem.
func BenchmarkServeMinCut(b *testing.B) {
	g, w, parts, buildSeed := erSnapshotFixture(b, 2000)
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{Rng: rand.New(rand.NewSource(buildSeed))})
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(snap, serve.ServerOptions{Executors: 1, Seed: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.ServeCtx(ctx, serve.MinCutQuery{}); err != nil {
			b.Fatal(err)
		}
	}
}

// deltaOfSize builds an insert-only delta of k edges absent from g.
func deltaOfSize(b *testing.B, g *graph.Graph, k int, seed int64) graph.Delta {
	b.Helper()
	d, err := gen.InsertDelta(g, k, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkApplyDelta is the dynamic-graphs acceptance measurement on
// ClusterChain n=1e5 (sampling probability ≈ 0.35): a 64-edge delta
// absorbed by ApplyDelta versus the default from-scratch snapshot build it
// replaces, which simulates no MST either (run explicitly with
// -benchtime=1x). The delta derives its shortcuts from the old ones
// (shortcut.DeriveSeeded), drawing only the inserted edges, and re-measures
// only the touched parts; the rebuild draws every arc and measures every
// part. Recorded (-benchtime=1x -count 2, 2 vCPUs): delta 69–77 ms/op and
// 51 MB/op vs rebuild 279–280 ms/op and 42 MB/op.
func BenchmarkApplyDelta(b *testing.B) {
	fx := getBenchFixture(b, 100_000)
	b.Run("delta-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := deltaOfSize(b, fx.snap.Graph(), 64, int64(i+1))
			b.StartTimer()
			if _, err := serve.ApplyDelta(context.Background(), fx.snap, d, serve.DeltaOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		d := deltaOfSize(b, fx.snap.Graph(), 64, 1)
		g2, w2, _, err := graph.ApplyDelta(fx.snap.Graph(), fx.snap.Weights(), d)
		if err != nil {
			b.Fatal(err)
		}
		parts, err := gen.VoronoiParts(fx.g, 64, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := serve.NewSnapshot(g2, w2, parts, serve.SnapshotOptions{
				Rng: rand.New(rand.NewSource(int64(i + 1))), Diameter: 6, LogFactor: 0.3,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDilationBrackets is the bracketed half of a dilation measure on
// BenchmarkApplyDelta's fixture (ClusterChain n=1e5, 64 Voronoi parts): one
// Shortcuts.DilationsOf call over the parts above the serving layer's
// 3000-node exact cutoff, each of which reports the [ecc, 2·ecc] bracket of
// its leader's eccentricity. Run it with -benchmem.
func BenchmarkDilationBrackets(b *testing.B) {
	const cutoff = 3000 // the serving layer's dilationCutoff
	s := getBenchFixture(b, 100_000).snap.Shortcuts()
	var parts []int
	for i := 0; i < s.P.NumParts(); i++ {
		if len(s.P.Part(i).Nodes) > cutoff {
			parts = append(parts, i)
		}
	}
	if len(parts) == 0 {
		b.Fatal("no part above the cutoff")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DilationsOf(ctx, parts, cutoff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSSSPWarmIntoSwap is the warm allocation-free path on a
// store-backed server measured after an epoch hot-swap: checkout now also
// pins the epoch (two atomics), and the executor pool carries over from the
// pre-swap snapshot — CI's benchmark smoke asserts this path stays at
// 0 allocs/op, so swapping snapshots can never reintroduce steady-state
// allocation.
func BenchmarkServeSSSPWarmIntoSwap(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	next, err := serve.ApplyDelta(context.Background(), fx.snap, deltaOfSize(b, fx.g, 4, 9), serve.DeltaOptions{})
	if err != nil {
		b.Fatal(err)
	}
	store := serve.NewStore(fx.snap)
	srv := serve.NewStoreServer(store, serve.ServerOptions{Executors: 1})
	dst := make([]float64, fx.g.NumNodes())
	if dst, err = srv.ServeSSSPInto(dst, 0); err != nil { // warm the executor on epoch 1
		b.Fatal(err)
	}
	if _, err := store.SwapCtx(context.Background(), next); err != nil {
		b.Fatal(err)
	}
	runtime.GC() // keep background GC out of the 1x timed window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = srv.ServeSSSPInto(dst, graph.NodeID(i%fx.g.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSSSPWarmIntoCtx is the warm path through the context-first
// v2 method with a live cancellable context: CI's benchmark smoke asserts
// it stays at 0 allocs/op and within noise of the context-free path (the
// check is a prefetched-channel poll at executor checkout).
func BenchmarkServeSSSPWarmIntoCtx(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dst := make([]float64, fx.g.NumNodes())
	var err error
	if dst, err = srv.ServeSSSPIntoCtx(ctx, dst, 0); err != nil { // warm the executor
		b.Fatal(err)
	}
	runtime.GC() // keep background GC out of the 1x timed window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = srv.ServeSSSPIntoCtx(ctx, dst, graph.NodeID(i%fx.g.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// persistBenchPath writes the n-node bench fixture's snapshot to a temp file
// once per size and returns the path (cached alongside the fixture).
var (
	persistBenchMu    sync.Mutex
	persistBenchPaths = map[int]string{}
)

func persistBenchPath(b *testing.B, n int) string {
	b.Helper()
	fx := getBenchFixture(b, n)
	persistBenchMu.Lock()
	defer persistBenchMu.Unlock()
	if p, ok := persistBenchPaths[n]; ok {
		return p
	}
	dir, err := os.MkdirTemp("", "lcsnap-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	p := filepath.Join(dir, "snap.lcsnap")
	if err := serve.WriteSnapshotFile(p, fx.snap); err != nil {
		b.Fatal(err)
	}
	persistBenchPaths[n] = p
	return p
}

// BenchmarkLoadSnapshot is the cold-start measurement: opening a persisted
// snapshot versus the ~seconds-scale NewSnapshot build it replaces. The mmap
// arm is the zero-copy fast path (verification off measures pure open+slice;
// on, the checksum+structural scan cost); the heap arm is the portable
// fallback. Part of CI's benchmark smoke at n=10⁴; the recorded n=10⁵
// numbers live in BENCH_serving.json and the README.
func BenchmarkLoadSnapshot(b *testing.B) {
	path := persistBenchPath(b, 10_000)
	for _, arm := range []struct {
		name string
		opts serve.LoadOptions
	}{
		{"mmap", serve.LoadOptions{}},
		{"mmap-noverify", serve.LoadOptions{SkipVerify: true}},
		{"heap", serve.LoadOptions{NoMmap: true}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sn, err := serve.LoadSnapshot(path, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := sn.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeSSSPWarmIntoLoaded is BenchmarkServeSSSPWarmInto running
// against a LoadSnapshot-mapped snapshot instead of the built one: the warm
// query path over the file mapping must stay 0 allocs/op (CI's benchmark
// smoke asserts it) and within noise of the in-memory path — persistence
// costs a page fault on first touch, never a steady-state allocation.
func BenchmarkServeSSSPWarmIntoLoaded(b *testing.B) {
	fx := getBenchFixture(b, 10_000)
	sn, err := serve.LoadSnapshot(persistBenchPath(b, 10_000), serve.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer sn.Close()
	srv := serve.NewServer(sn, serve.ServerOptions{Executors: 1})
	dst := make([]float64, fx.g.NumNodes())
	if dst, err = srv.ServeSSSPInto(dst, 0); err != nil { // warm the executor
		b.Fatal(err)
	}
	runtime.GC() // keep background GC out of the 1x timed window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = srv.ServeSSSPInto(dst, graph.NodeID(i%fx.g.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
	}
}
