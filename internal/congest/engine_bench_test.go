package congest

// Benchmarks of the engine itself: rounds/sec and messages/sec for a BFS
// flood on ClusterChain at n ∈ {1e4, 1e5}, comparing the seed delivery path
// (global sort.Slice per round, staging outbox, goroutine-per-node) against
// the flat arc-indexed path. Run with:
//
//	go test ./internal/congest -bench BenchmarkEngine -benchtime 2x

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func benchEngineOnce(b *testing.B, g *graph.Graph, run func() (Stats, error)) {
	b.Helper()
	b.ReportAllocs()
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		st, err := run()
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(st.Rounds)
		msgs += st.Messages
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(rounds)/sec, "rounds/s")
		b.ReportMetric(float64(msgs)/sec, "msgs/s")
	}
}

func BenchmarkEngineBFS(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := gen.ClusterChain(n, 8, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/seed-sequential", n), func(b *testing.B) {
			benchEngineOnce(b, g, func() (Stats, error) {
				_, st, err := seedRunBFS(g, 0, false, 1<<20)
				return st, err
			})
		})
		b.Run(fmt.Sprintf("n=%d/seed-goroutines", n), func(b *testing.B) {
			benchEngineOnce(b, g, func() (Stats, error) {
				_, st, err := seedRunBFS(g, 0, true, 1<<20)
				return st, err
			})
		})
		b.Run(fmt.Sprintf("n=%d/flat-sequential", n), func(b *testing.B) {
			eng := NewEngine(Options{MaxRounds: 1 << 20})
			benchEngineOnce(b, g, func() (Stats, error) {
				_, st, err := RunBFS(g, 0, eng)
				return st, err
			})
		})
	}
}
