// Benchmarks regenerating every experiment of EXPERIMENTS.md (E1–E13,
// A1, A2, A4, A5) at reduced "quick" scale, plus micro-benchmarks of the hot paths.
// Full-scale tables are produced by cmd/lcsbench.
package repro_test

import (
	"math/rand"
	"testing"

	"repro"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/shortcut"
)

func benchCfg(b *testing.B) expt.Config {
	b.Helper()
	return expt.Config{Quick: true, Seed: 42}.WithDefaults()
}

func runExperiment(b *testing.B, fn func(expt.Config) (*expt.Table, error)) {
	cfg := benchCfg(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1Quality(b *testing.B)       { runExperiment(b, expt.E1Quality) }
func BenchmarkE2Rounds(b *testing.B)        { runExperiment(b, expt.E2Rounds) }
func BenchmarkE3Congestion(b *testing.B)    { runExperiment(b, expt.E3Congestion) }
func BenchmarkE4Dilation(b *testing.B)      { runExperiment(b, expt.E4Dilation) }
func BenchmarkE5Baselines(b *testing.B)     { runExperiment(b, expt.E5Baselines) }
func BenchmarkE6MST(b *testing.B)           { runExperiment(b, expt.E6MST) }
func BenchmarkE7MinCut(b *testing.B)        { runExperiment(b, expt.E7MinCut) }
func BenchmarkE8Messages(b *testing.B)      { runExperiment(b, expt.E8Messages) }
func BenchmarkE9OddEven(b *testing.B)       { runExperiment(b, expt.E9OddEven) }
func BenchmarkE10Scheduler(b *testing.B)    { runExperiment(b, expt.E10Scheduler) }
func BenchmarkE11Walks(b *testing.B)        { runExperiment(b, expt.E11Walks) }
func BenchmarkE12SSSP(b *testing.B)         { runExperiment(b, expt.E12SSSP) }
func BenchmarkE13TwoECSS(b *testing.B)      { runExperiment(b, expt.E13TwoECSS) }
func BenchmarkA1Repetitions(b *testing.B)   { runExperiment(b, expt.A1Repetitions) }
func BenchmarkA2Scheduling(b *testing.B)    { runExperiment(b, expt.A2Scheduling) }
func BenchmarkA4Deterministic(b *testing.B) { runExperiment(b, expt.A4Deterministic) }
func BenchmarkA5Local(b *testing.B)         { runExperiment(b, expt.A5Local) }

// --- micro-benchmarks of the hot paths ---------------------------------------

func BenchmarkCentralizedBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	hi, err := gen.NewHardInstance(4000, 4, 0, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := shortcut.NewPartition(hi.G, hi.Paths)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shortcut.Build(hi.G, p, shortcut.Options{
			Diameter: 4, LogFactor: 0.3, Rng: rng,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCongestionMeasure(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	hi, err := gen.NewHardInstance(4000, 4, 0, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := shortcut.NewPartition(hi.G, hi.Paths)
	if err != nil {
		b.Fatal(err)
	}
	s, err := shortcut.Build(hi.G, p, shortcut.Options{Diameter: 4, LogFactor: 0.3, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Congestion() < 1 {
			b.Fatal("congestion")
		}
	}
}

func BenchmarkDilationMeasure(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	hi, err := gen.NewHardInstance(2000, 4, 0, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := shortcut.NewPartition(hi.G, hi.Paths)
	if err != nil {
		b.Fatal(err)
	}
	s, err := shortcut.Build(hi.G, p, shortcut.Options{Diameter: 4, LogFactor: 0.3, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Dilation(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ClusterChain(4000, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]sched.BFSTask, 16)
	for i := range tasks {
		tasks[i] = sched.BFSTask{Root: repro.NodeID(rng.Intn(g.NumNodes())), DepthLimit: 8}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.ParallelBFS(g, tasks, sched.Options{MaxDelay: 16, Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, err := repro.ClusterChain(100000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := graph.BFS(g, 0); len(res.Reached) != g.NumNodes() {
			b.Fatal("BFS did not span")
		}
	}
}
