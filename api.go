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
//	s, _ := repro.BuildShortcutsCtx(ctx, g, p, repro.WithSeed(1), repro.WithDiameter(6))
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

// DistShortcutResult is the simulated construction's outcome with exact
// round and message accounting.
type DistShortcutResult = shortcut.DistResult

// GhaffariHaeuplerShortcuts builds the generic O(D+√n)-quality baseline
// shortcuts of [GH16] (experiment E5's comparison arm).
func GhaffariHaeuplerShortcuts(p *Partition, root NodeID) *Shortcuts {
	return shortcut.GhaffariHaeupler(p, root)
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

// MSTDistResult is the distributed MST outcome with cost accounting.
type MSTDistResult = mst.DistResult

// MinCut computes the exact weighted global minimum cut (Stoer–Wagner).
func MinCut(g *Graph, w Weights) (float64, []NodeID, error) { return mincut.StoerWagner(g, w) }

// MinCutApproxResult is the approximation outcome.
type MinCutApproxResult = mincut.ApproxResult

// SSSP computes exact shortest-path distances (Dijkstra).
func SSSP(g *Graph, w Weights, src NodeID) ([]float64, error) { return sssp.Dijkstra(g, w, src) }

// SSSPTreeResult is the approximate SSSP outcome.
type SSSPTreeResult = sssp.TreeResult

// TwoECSSResult is the 2-ECSS outcome.
type TwoECSSResult = twoecss.Result

// --- Serving ------------------------------------------------------------------
//
// The serving layer converts the batch reproduction into a query-serving
// system: one Snapshot holds the expensive artifacts (shortcuts + derived
// shortcut-MST), built once; a Server answers the whole application family
// concurrently from a pool of reusable executor contexts.

// Snapshot is the immutable serving state: graph + partition + constructed
// shortcuts + derived shortcut-MST, built once and shared read-only.
type Snapshot = serve.Snapshot

// Server answers typed queries against one Snapshot from a pool of reusable
// executor contexts. All methods are safe for concurrent use; every answer
// is deterministic and identical to its single-threaded counterpart.
type Server = serve.Server

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
type SchedStats = sched.Stats

// The CONGEST node-programming vocabulary, re-exported so external modules
// can implement their own Programs against RunCongestCtx (the internal
// package rule forbids importing repro/internal/congest directly).
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
