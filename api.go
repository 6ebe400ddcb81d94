// Package repro is a Go implementation of "Low-Congestion Shortcuts in
// Constant Diameter Graphs" (Kogan & Parter, PODC 2021): shortcut
// constructions with quality ˜O(n^((D-2)/(2D-2))) for n-vertex graphs of
// constant diameter D, a CONGEST-model simulator the distributed algorithms
// run on, and the shortcut-powered applications of Corollary 1.2 and
// Section 4 — MST, approximate minimum cut, approximate SSSP, and
// approximate 2-ECSS.
//
// The facade re-exports the library's stable surface; internal packages
// carry the full machinery (see DESIGN.md for the module map).
//
// Quick start:
//
//	g, _ := repro.ClusterChain(10_000, 6, rng)    // diameter-6 graph
//	parts, _ := repro.VoronoiParts(g, 64, rng)    // disjoint connected parts
//	p, _ := repro.NewPartition(g, parts)
//	s, _ := repro.BuildShortcuts(g, p, repro.ShortcutOptions{Diameter: 6, Rng: rng})
//	q, _ := s.Dilation(0)
//	fmt.Println(q) // c=…, d=…
package repro

import (
	"math/rand"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/mst"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shortcut"
	"repro/internal/sssp"
	"repro/internal/twoecss"
)

// Graph is an immutable simple undirected graph in CSR form with stable
// undirected edge identifiers.
type Graph = graph.Graph

// NodeID identifies a vertex; EdgeID identifies an undirected edge.
type (
	NodeID = graph.NodeID
	EdgeID = graph.EdgeID
)

// Weights assigns a positive weight to every edge, indexed by EdgeID.
type Weights = graph.Weights

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]NodeID) (*Graph, error) { return graph.FromEdges(n, edges) }

// Partition is a validated collection of vertex-disjoint connected parts
// with max-ID leaders — the input to every shortcut construction.
type Partition = shortcut.Partition

// NewPartition validates the parts (non-empty, disjoint, connected).
func NewPartition(g *Graph, parts [][]NodeID) (*Partition, error) {
	return shortcut.NewPartition(g, parts)
}

// Shortcuts is a computed shortcut assignment with quality measurement.
type Shortcuts = shortcut.Shortcuts

// Quality is a measured (congestion, dilation) pair.
type Quality = shortcut.Quality

// ShortcutOptions configures the centralized construction (see
// shortcut.Options for field semantics).
type ShortcutOptions = shortcut.Options

// BuildShortcuts runs the paper's centralized sampling construction
// (Section 2).
//
// Deprecated: use BuildShortcutsCtx with functional options (WithSeed,
// WithDiameter, …). This adapter maps the v1 struct onto v2 field-for-field,
// so results are bit-identical.
func BuildShortcuts(g *Graph, p *Partition, opts ShortcutOptions) (*Shortcuts, error) {
	return BuildShortcutsCtx(opts.Ctx, g, p, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.Reps, c.SamplingBoost = opts.Diameter, opts.Reps, opts.LogFactor
	})
}

// DistShortcutOptions configures the CONGEST-simulated construction.
type DistShortcutOptions = shortcut.DistOptions

// DistShortcutResult is the simulated construction's outcome with exact
// round and message accounting.
type DistShortcutResult = shortcut.DistResult

// BuildShortcutsDistributed runs the full distributed pipeline of Section 2
// (leader election, part classification, numbering, local sampling,
// random-delay scheduled BFS, verification, diameter guessing) on the
// CONGEST simulator.
// Deprecated: use BuildShortcutsDistributedCtx with functional options.
// This adapter maps the v1 struct onto v2 field-for-field, so results are
// bit-identical.
func BuildShortcutsDistributed(g *Graph, p *Partition, opts DistShortcutOptions) (*DistShortcutResult, error) {
	return BuildShortcutsDistributedCtx(opts.Ctx, g, p, WithRng(opts.Rng), func(c *Config) {
		c.SamplingBoost, c.Reps, c.Workers = opts.LogFactor, opts.Reps, opts.Workers
		c.DepthFactor, c.KnownDiameter = opts.DepthFactor, opts.KnownDiameter
		c.MaxRounds, c.CongestionCap = opts.MaxRounds, opts.CongestionCapFactor
	})
}

// GhaffariHaeuplerShortcuts builds the generic O(D+√n)-quality baseline
// shortcuts of [GH16] (experiment E5's comparison arm).
func GhaffariHaeuplerShortcuts(p *Partition, root NodeID) *Shortcuts {
	return shortcut.GhaffariHaeupler(p, root)
}

// BuildShortcutsDeterministic is the derandomized variant exploring the
// paper's derandomization open end: structurally capped congestion,
// empirically-evaluated dilation (experiment A4).
//
// Deprecated: use BuildShortcutsDeterministicCtx with functional options.
func BuildShortcutsDeterministic(g *Graph, p *Partition, opts ShortcutOptions) (*Shortcuts, error) {
	return BuildShortcutsDeterministicCtx(opts.Ctx, g, p, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.Reps, c.SamplingBoost = opts.Diameter, opts.Reps, opts.LogFactor
	})
}

// LocalShortcutOptions configures the locality-restricted variant.
type LocalShortcutOptions = shortcut.LocalOptions

// BuildShortcutsLocal is the message-efficient variant exploring the paper's
// message-complexity open end: sampling restricted to the D/2-hop horizon of
// each part (experiment A5).
//
// Deprecated: use BuildShortcutsLocalCtx with functional options.
func BuildShortcutsLocal(g *Graph, p *Partition, opts LocalShortcutOptions) (*Shortcuts, error) {
	return BuildShortcutsLocalCtx(opts.Ctx, g, p, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.Reps, c.SamplingBoost = opts.Diameter, opts.Reps, opts.LogFactor
		c.Radius = opts.Radius
	})
}

// TrivialShortcuts is the empty assignment (Hi = ∅).
func TrivialShortcuts(p *Partition) *Shortcuts { return shortcut.Trivial(p) }

// KD returns the paper's quality scale kD = n^((D-2)/(2D-2)).
func KD(n, d int) float64 { return gen.KD(n, d) }

// --- Generators --------------------------------------------------------------

// ClusterChain generates a connected n-vertex graph of diameter exactly d
// with Θ(n) edges — the "typical constant-diameter network" workload.
func ClusterChain(n, d int, rng *rand.Rand) (*Graph, error) { return gen.ClusterChain(n, d, rng) }

// HardInstance is an Elkin/Lotker-style lower-bound-shaped graph with its
// path partition; see gen.HardInstance.
type HardInstance = gen.HardInstance

// NewHardInstance generates a hard instance on ~n vertices of diameter d.
func NewHardInstance(n, d int, rng *rand.Rand) (*HardInstance, error) {
	return gen.NewHardInstance(n, d, 0, 0, rng)
}

// VoronoiParts partitions a connected graph into k connected parts by
// growing balls from random seeds.
func VoronoiParts(g *Graph, k int, rng *rand.Rand) ([][]NodeID, error) {
	return gen.VoronoiParts(g, k, rng)
}

// UniformWeights draws independent edge weights in (0, 1].
func UniformWeights(g *Graph, rng *rand.Rand) Weights {
	return graph.NewUniformWeights(g.NumEdges(), rng)
}

// --- Applications -------------------------------------------------------------

// MST computes the exact minimum spanning tree/forest (Kruskal).
func MST(g *Graph, w Weights) ([]EdgeID, error) { return mst.Kruskal(g, w) }

// MSTDistOptions configures the distributed MST (see mst.DistOptions).
type MSTDistOptions = mst.DistOptions

// MSTDistResult is the distributed MST outcome with cost accounting.
type MSTDistResult = mst.DistResult

// MSTDistributed computes the MST with Borůvka phases through low-congestion
// shortcuts (Corollary 1.2): ˜O(kD) rounds on constant-diameter graphs.
//
// Deprecated: use MSTDistributedCtx with functional options. This adapter
// maps the v1 struct onto v2 field-for-field, so results are bit-identical.
func MSTDistributed(g *Graph, w Weights, opts MSTDistOptions) (*MSTDistResult, error) {
	return MSTDistributedCtx(opts.Ctx, g, w, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.SamplingBoost, c.Workers = opts.Diameter, opts.LogFactor, opts.Workers
		c.Baseline, c.SimulateConstruction = opts.Baseline, opts.SimulateConstruction
		c.DepthFactor, c.MaxRounds = opts.DepthFactor, opts.MaxRounds
	})
}

// MinCut computes the exact weighted global minimum cut (Stoer–Wagner).
func MinCut(g *Graph, w Weights) (float64, []NodeID, error) { return mincut.StoerWagner(g, w) }

// MinCutApproxOptions configures the tree-packing approximation.
type MinCutApproxOptions = mincut.ApproxOptions

// MinCutApproxResult is the approximation outcome.
type MinCutApproxResult = mincut.ApproxResult

// MinCutApprox approximates the minimum cut via greedy tree packing over the
// shortcut-MST (Corollary 1.2's reduction; see DESIGN.md substitutions).
//
// Deprecated: use MinCutApproxCtx with functional options (WithEps or
// WithTrees select the packed-tree count).
func MinCutApprox(g *Graph, w Weights, opts MinCutApproxOptions) (*MinCutApproxResult, error) {
	return MinCutApproxCtx(opts.Ctx, g, w, WithRng(opts.Rng), func(c *Config) {
		c.Trees, c.Diameter, c.SamplingBoost = opts.Trees, opts.Diameter, opts.LogFactor
		c.DistributedAccounting, c.Workers, c.Tree = opts.Distributed, opts.Workers, opts.FirstTree
	})
}

// SSSP computes exact shortest-path distances (Dijkstra).
func SSSP(g *Graph, w Weights, src NodeID) ([]float64, error) { return sssp.Dijkstra(g, w, src) }

// SSSPTreeOptions configures the shortcut-tree approximate SSSP.
type SSSPTreeOptions = sssp.TreeOptions

// SSSPTreeResult is the approximate SSSP outcome.
type SSSPTreeResult = sssp.TreeResult

// SSSPApprox computes approximate SSSP distances through the shortcut-MST
// (Corollary 4.2's reduction shape; stretch measured, not guaranteed).
//
// Deprecated: use SSSPApproxCtx with functional options.
func SSSPApprox(g *Graph, w Weights, src NodeID, opts SSSPTreeOptions) (*SSSPTreeResult, error) {
	return SSSPApproxCtx(opts.Ctx, g, w, src, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.SamplingBoost, c.Workers = opts.Diameter, opts.LogFactor, opts.Workers
		c.MaxRounds = opts.MaxRounds
	})
}

// TwoECSSOptions configures the 2-ECSS approximation.
type TwoECSSOptions = twoecss.Options

// TwoECSSResult is the 2-ECSS outcome.
type TwoECSSResult = twoecss.Result

// TwoECSS computes an approximate minimum-weight two-edge-connected spanning
// subgraph (Corollary 4.3's reduction shape).
//
// Deprecated: use TwoECSSCtx with functional options (WithTree supplies a
// prebuilt spanning tree and lifts the randomness requirement).
func TwoECSS(g *Graph, w Weights, opts TwoECSSOptions) (*TwoECSSResult, error) {
	return TwoECSSCtx(opts.Ctx, g, w, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.SamplingBoost, c.Workers = opts.Diameter, opts.LogFactor, opts.Workers
		c.DistributedAccounting, c.Tree = opts.Distributed, opts.Tree
	})
}

// --- Serving ------------------------------------------------------------------
//
// The serving layer converts the batch reproduction into a query-serving
// system: one Snapshot holds the expensive artifacts (shortcuts + derived
// shortcut-MST), built once; a Server answers the whole application family
// concurrently from a pool of reusable executor contexts.

// Snapshot is the immutable serving state: graph + partition + constructed
// shortcuts + derived shortcut-MST, built once and shared read-only.
type Snapshot = serve.Snapshot

// SnapshotOptions configures NewSnapshot.
type SnapshotOptions = serve.SnapshotOptions

// NewSnapshot builds the serving state (shortcut construction, quality
// measurement, distributed shortcut-MST, tree index) once.
//
// Deprecated: use NewSnapshotCtx with functional options — a cold build on a
// large graph runs for seconds and only the v2 path can be canceled.
func NewSnapshot(g *Graph, w Weights, parts [][]NodeID, opts SnapshotOptions) (*Snapshot, error) {
	return NewSnapshotCtx(opts.Ctx, g, w, parts, WithRng(opts.Rng), func(c *Config) {
		c.Diameter, c.SamplingBoost, c.Workers = opts.Diameter, opts.LogFactor, opts.Workers
		c.DilationCutoff, c.MaxRounds = opts.DilationCutoff, opts.MaxRounds
	})
}

// Server answers typed queries against one Snapshot from a pool of reusable
// executor contexts. All methods are safe for concurrent use; every answer
// is deterministic and identical to its single-threaded counterpart.
type Server = serve.Server

// ServerOptions configures NewServer (pool size, query-determinism seed,
// observability).
type ServerOptions = serve.ServerOptions

// NewServer builds a server over snap.
//
// Deprecated: use NewServerV2 with functional options (WithExecutors,
// WithServerSeed) and the server's context-first query methods.
func NewServer(snap *Snapshot, opts ServerOptions) *Server {
	// NewServerV2 maps its Config onto exactly this constructor; calling it
	// directly keeps the v1 signature error-free by construction.
	return serve.NewServer(snap, opts)
}

// The serving query family (Corollaries 1.2, 4.2, 4.3 plus quality
// introspection) and its typed answers. Server.ServeBatch answers a batch
// on one executor and one pinned snapshot, walking each distinct SSSP root
// once.
type (
	// ServeQuery is one typed request; ServeAnswer one typed response.
	ServeQuery  = serve.Query
	ServeAnswer = serve.Answer
	// SSSPQuery asks for approximate SSSP distances through the snapshot's
	// shortcut-MST.
	SSSPQuery  = serve.SSSPQuery
	SSSPAnswer = serve.SSSPAnswer
	// MSTQuery asks for the snapshot's shortcut-MST.
	MSTQuery  = serve.MSTQuery
	MSTAnswer = serve.MSTAnswer
	// MinCutQuery asks for an approximate minimum cut (tree packing seeded
	// with the snapshot's MST).
	MinCutQuery  = serve.MinCutQuery
	MinCutAnswer = serve.MinCutAnswer
	// TwoECSSQuery asks for the approximate 2-ECSS on the snapshot's MST.
	TwoECSSQuery  = serve.TwoECSSQuery
	TwoECSSAnswer = serve.TwoECSSAnswer
	// QualityQuery asks for one part's (congestion, dilation) quality.
	QualityQuery  = serve.QualityQuery
	QualityAnswer = serve.QualityAnswer
	// ServerStats is a point-in-time snapshot of serving counters.
	ServerStats = serve.Stats
)

// --- CONGEST access ------------------------------------------------------------

// CongestStats aggregates simulated rounds and messages.
type CongestStats = congest.Stats

// SchedStats is the random-delay scheduler's exact cost accounting
// (Theorem 2.1): realized rounds, messages, per-edge congestion, and peak
// queueing. It is reported by the distributed shortcut construction
// (DistShortcutResult.SchedStats) and tracked by lcsbench's -json output.
// Every Workers setting threaded through DistShortcutOptions,
// MSTDistOptions, SSSPTreeOptions, TwoECSSOptions, and MinCutApproxOptions
// now drives the scheduler's sharded drain as well as the CONGEST engine,
// with bit-for-bit identical results.
type SchedStats = sched.Stats

// The CONGEST node-programming vocabulary, re-exported so external modules
// can implement their own Programs against RunCongest (the internal package
// rule forbids importing repro/internal/congest directly).
type (
	// CongestMessage is one O(log n)-bit message: a kind tag plus three words.
	CongestMessage = congest.Message
	// CongestInbound is a delivered message tagged with arrival port/sender.
	CongestInbound = congest.Inbound
	// CongestView is a node's local view of the network.
	CongestView = congest.View
	// CongestOutbox stages one round's sends for a node.
	CongestOutbox = congest.Outbox
	// CongestProgram is the behavior of one node.
	CongestProgram = congest.Program
	// CongestFactory creates the program for one node.
	CongestFactory = congest.Factory
)

// CongestOptions configures the unified CONGEST engine: Workers selects the
// execution mode (0/1 = deterministic sequential, k > 1 = sharded pool of k
// workers, negative = one worker per CPU) and MaxRounds bounds a run. All
// modes produce bit-for-bit identical outputs and stats on error-free runs.
type CongestOptions = congest.Options

// CongestEngine executes CONGEST Programs; build one with NewCongestEngine.
type CongestEngine = congest.Engine

// NewCongestEngine returns the engine selected by opts.
func NewCongestEngine(opts CongestOptions) CongestEngine { return congest.NewEngine(opts) }

// RunCongest executes one Program per node of g on the unified CONGEST
// engine, for users who want to run their own Programs (see internal/congest
// docs).
func RunCongest(g *Graph, factory CongestFactory, opts CongestOptions) (CongestStats, []CongestProgram, error) {
	return congest.Run(g, factory, opts)
}

// RunSequential and RunGoroutines are the seed's two engine entry points.
//
// Deprecated: both now delegate to the unified flat-buffer engine; use
// RunCongest (Workers 0 replaces RunSequential, Workers -1 replaces
// RunGoroutines).
var (
	RunSequential = congest.RunSequential
	RunGoroutines = congest.RunGoroutines
)
