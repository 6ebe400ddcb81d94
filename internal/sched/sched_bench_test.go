package sched

// Old-vs-new scheduler benchmarks: the seed scheduler copy (seed_sched_test)
// against the flat scheduler, plus the Runner-reuse path whose round loop and extraction must show 0 allocs/op in steady
// state (checked in CI by the benchmark smoke step with -benchmem).

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func benchBFSWorkload(b *testing.B, n int) (*graph.Graph, []BFSTask) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ClusterChain(n, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]BFSTask, 16)
	for i := range tasks {
		tasks[i] = BFSTask{Root: graph.NodeID(rng.Intn(g.NumNodes())), DepthLimit: 8}
	}
	return g, tasks
}

func reportMsgRate(b *testing.B, messages int64) {
	b.ReportMetric(float64(messages)/b.Elapsed().Seconds(), "msgs/sec")
}

func benchSizes(b *testing.B) []struct {
	name string
	n    int
} {
	b.Helper()
	return []struct {
		name string
		n    int
	}{{"n=4000", 4000}, {"n=100000", 100000}}
}

func BenchmarkParallelBFSSeed(b *testing.B) {
	for _, sz := range benchSizes(b) {
		b.Run(sz.name, func(b *testing.B) {
			g, tasks := benchBFSWorkload(b, sz.n)
			rng := rand.New(rand.NewSource(1))
			var messages int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(1) // identical schedule every iteration
				_, stats, err := seedParallelBFS(g, tasks, Options{MaxDelay: 16, Rng: rng})
				if err != nil {
					b.Fatal(err)
				}
				messages += stats.Messages
			}
			reportMsgRate(b, messages)
		})
	}
}

func BenchmarkParallelBFSFlat(b *testing.B) {
	for _, sz := range benchSizes(b) {
		b.Run(sz.name, func(b *testing.B) {
			g, tasks := benchBFSWorkload(b, sz.n)
			rng := rand.New(rand.NewSource(1))
			var runner Runner
			var f BFSForest
			if _, err := runner.ParallelBFSInto(&f, g, tasks, Options{MaxDelay: 16, Rng: rng}); err != nil {
				b.Fatal(err) // warmup: reach the Runner's steady state
			}
			var messages int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(1) // identical schedule every iteration
				stats, err := runner.ParallelBFSInto(&f, g, tasks, Options{MaxDelay: 16, Rng: rng})
				if err != nil {
					b.Fatal(err)
				}
				messages += stats.Messages
			}
			reportMsgRate(b, messages)
		})
	}
}

func benchAggWorkload(b *testing.B, g *graph.Graph, tasks []BFSTask) ([]AggTask, []seedAggTask) {
	b.Helper()
	var runner Runner
	f, _, err := runner.ParallelBFS(g, tasks, Options{})
	if err != nil {
		b.Fatal(err)
	}
	flat := make([]AggTask, f.NumTasks())
	for i := range flat {
		o := f.Outcome(i)
		local := make([]AggValue, o.Len())
		for j := range local {
			v := o.Node(j)
			local[j] = AggValue{Weight: float64((v * 13) % 101), Edge: graph.EdgeID(v % int32(g.NumEdges())), Valid: true}
		}
		flat[i] = AggTask{Root: tasks[i].Root, Tree: o, Local: local}
	}
	seedOut, _, err := seedParallelBFS(g, tasks, Options{})
	if err != nil {
		b.Fatal(err)
	}
	seed := make([]seedAggTask, len(seedOut))
	for i, o := range seedOut {
		local := make(map[graph.NodeID]AggValue, len(o.Dist))
		for v := range o.Dist {
			local[v] = AggValue{Weight: float64((v * 13) % 101), Edge: graph.EdgeID(v % int32(g.NumEdges())), Valid: true}
		}
		seed[i] = seedAggTask{Root: tasks[i].Root, Parent: o.Parent, Children: o.Children, Local: local}
	}
	return flat, seed
}

func BenchmarkParallelMinAggregateSeed(b *testing.B) {
	for _, sz := range benchSizes(b) {
		b.Run(sz.name, func(b *testing.B) {
			g, tasks := benchBFSWorkload(b, sz.n)
			_, seedTasks := benchAggWorkload(b, g, tasks)
			rng := rand.New(rand.NewSource(2))
			var messages int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(2) // identical schedule every iteration
				_, stats, err := seedParallelMinAggregate(g, seedTasks, Options{MaxDelay: 16, Rng: rng})
				if err != nil {
					b.Fatal(err)
				}
				messages += stats.Messages
			}
			reportMsgRate(b, messages)
		})
	}
}

func BenchmarkParallelMinAggregateFlat(b *testing.B) {
	for _, sz := range benchSizes(b) {
		b.Run(sz.name, func(b *testing.B) {
			g, tasks := benchBFSWorkload(b, sz.n)
			flatTasks, _ := benchAggWorkload(b, g, tasks)
			rng := rand.New(rand.NewSource(2))
			var runner Runner
			var dst []AggValue
			var err error
			if dst, _, err = runner.ParallelMinAggregateInto(dst, g, flatTasks, Options{MaxDelay: 16, Rng: rng}); err != nil {
				b.Fatal(err) // warmup: reach the Runner's steady state
			}
			var messages int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(2) // identical schedule every iteration
				var stats Stats
				dst, stats, err = runner.ParallelMinAggregateInto(dst, g, flatTasks, Options{MaxDelay: 16, Rng: rng})
				if err != nil {
					b.Fatal(err)
				}
				messages += stats.Messages
			}
			reportMsgRate(b, messages)
		})
	}
}

// BenchmarkParallelBFSFlatCtx is BenchmarkParallelBFSFlat with a live
// cancellable context threaded through the drain — the API v2 hot path.
// CI's benchmark smoke asserts it stays at 0 allocs/op: the per-round
// cancellation check is one poll of a prefetched channel.
func BenchmarkParallelBFSFlatCtx(b *testing.B) {
	for _, sz := range benchSizes(b) {
		b.Run(sz.name, func(b *testing.B) {
			g, tasks := benchBFSWorkload(b, sz.n)
			rng := rand.New(rand.NewSource(1))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := Options{MaxDelay: 16, Rng: rng, Ctx: ctx}
			var runner Runner
			var f BFSForest
			if _, err := runner.ParallelBFSInto(&f, g, tasks, opts); err != nil {
				b.Fatal(err) // warmup: reach the Runner's steady state
			}
			var messages int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(1) // identical schedule every iteration
				stats, err := runner.ParallelBFSInto(&f, g, tasks, opts)
				if err != nil {
					b.Fatal(err)
				}
				messages += stats.Messages
			}
			reportMsgRate(b, messages)
		})
	}
}
