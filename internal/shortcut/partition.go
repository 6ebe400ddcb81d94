// Package shortcut implements the paper's primary contribution: low-
// congestion shortcuts for constant-diameter graphs (Kogan & Parter, PODC
// 2021). Given a graph G and vertex-disjoint connected parts S1..Sℓ, a
// (c, d)-shortcut augments each G[Si] with Hi ⊆ G such that every edge lies
// on at most c augmented subgraphs and every augmented subgraph has diameter
// at most d.
//
// The package provides:
//
//   - Partition: validated part collections with max-ID leaders (Definition
//     1.1's input, under the standard input convention of [GH16]).
//   - Build: the centralized sampling construction of Section 2 (Steps 1–2
//     with D independent repetitions; odd diameters via √p two-coin
//     sampling per Section 3.2).
//   - BuildDistributed: the CONGEST implementation (Section 2's distributed
//     implementation) on top of internal/congest and internal/sched,
//     including the diameter-guessing loop.
//   - Baselines: Ghaffari–Haeupler O(D+√n) shortcuts and the trivial
//     no-shortcut construction.
//   - Quality measurement: exact congestion and exact (or certified
//     2-approximate) dilation.
//   - Shortcut trees (tree.go): the auxiliary graphs of Section 3.1 as
//     executable artifacts, used by property tests to check Lemma 3.3.
package shortcut

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Part is one connected vertex subset with its designated leader — the
// maximum-ID node, following the paper's input convention ("each part Si is
// identified by the identifier of the node vi of maximum ID in Si").
type Part struct {
	Leader graph.NodeID
	Nodes  []graph.NodeID
}

// Partition is a validated collection of vertex-disjoint connected parts of
// a graph.
type Partition struct {
	g      *graph.Graph
	parts  []Part
	partOf []int32 // node -> part index, -1 if in no part
}

// NewPartition validates that the given node lists are non-empty, vertex-
// disjoint, in range, and each connected in the induced subgraph, and
// returns the Partition with max-ID leaders.
func NewPartition(g *graph.Graph, parts [][]graph.NodeID) (*Partition, error) {
	p := &Partition{
		g:      g,
		parts:  make([]Part, 0, len(parts)),
		partOf: make([]int32, g.NumNodes()),
	}
	for i := range p.partOf {
		p.partOf[i] = -1
	}
	for i, nodes := range parts {
		if len(nodes) == 0 {
			return nil, reproerr.Invalid("shortcut.NewPartition", "part %d is empty", i)
		}
		leader := nodes[0]
		for _, v := range nodes {
			if v < 0 || int(v) >= g.NumNodes() {
				return nil, reproerr.Invalid("shortcut.NewPartition", "part %d: node %d out of range", i, v)
			}
			if p.partOf[v] != -1 {
				return nil, reproerr.Invalid("shortcut.NewPartition", "node %d in parts %d and %d", v, p.partOf[v], i)
			}
			p.partOf[v] = int32(i)
			if v > leader {
				leader = v
			}
		}
		if !graph.IsNodeSetConnected(g, nodes) {
			return nil, reproerr.Invalid("shortcut.NewPartition", "part %d is not connected", i)
		}
		copied := make([]graph.NodeID, len(nodes))
		copy(copied, nodes)
		p.parts = append(p.parts, Part{Leader: leader, Nodes: copied})
	}
	return p, nil
}

// Graph returns the underlying graph.
func (p *Partition) Graph() *graph.Graph { return p.g }

// Rebind returns a Partition over g2 with the same parts (parts are vertex
// sets, and deltas never change the vertex universe). It copies the node
// lists and the part-of table, O(n): p's may alias a snapshot file mapping
// that is closed while the rebound partition still serves. Connectivity —
// the one invariant an edge deletion can break — is revalidated only for
// the part indices in recheck: the dynamic update path passes the parts
// that lost an intra-part edge.
func (p *Partition) Rebind(g2 *graph.Graph, recheck []int) (*Partition, error) {
	const op = "shortcut.Rebind"
	if g2.NumNodes() != p.g.NumNodes() {
		return nil, reproerr.Invalid(op, "node count changed: %d -> %d", p.g.NumNodes(), g2.NumNodes())
	}
	for _, i := range recheck {
		if i < 0 || i >= len(p.parts) {
			return nil, reproerr.Invalid(op, "part %d out of range [0,%d)", i, len(p.parts))
		}
		if !graph.IsNodeSetConnected(g2, p.parts[i].Nodes) {
			return nil, reproerr.Invalid(op, "part %d disconnected by delta", i)
		}
	}
	parts := make([]Part, len(p.parts))
	for i, part := range p.parts {
		parts[i] = Part{Leader: part.Leader, Nodes: slices.Clone(part.Nodes)}
	}
	return &Partition{g: g2, parts: parts, partOf: slices.Clone(p.partOf)}, nil
}

// NumParts returns the number of parts ℓ.
func (p *Partition) NumParts() int { return len(p.parts) }

// Part returns the i'th part. Callers must not modify the node list.
func (p *Partition) Part(i int) Part { return p.parts[i] }

// PartOf returns the index of the part containing v, or -1.
func (p *Partition) PartOf(v graph.NodeID) int32 { return p.partOf[v] }

// LeaderOf returns per-node leader IDs: leaderOf[v] is the leader of v's
// part, or v itself for nodes outside every part (forming singleton parts
// for the distributed primitives).
func (p *Partition) LeaderOf() []graph.NodeID {
	out := make([]graph.NodeID, p.g.NumNodes())
	for v := range out {
		out[v] = graph.NodeID(v)
	}
	for _, part := range p.parts {
		for _, v := range part.Nodes {
			out[v] = part.Leader
		}
	}
	return out
}

// LargeParts returns the indices of parts with more than threshold nodes —
// the parts that receive shortcut subgraphs (a part with ≤ kD nodes has
// diameter ≤ kD already).
func (p *Partition) LargeParts(threshold int) []int {
	var out []int
	for i := range p.parts {
		if len(p.parts[i].Nodes) > threshold {
			out = append(out, i)
		}
	}
	return out
}

// MaxPartDiameter returns the largest induced-subgraph diameter over all
// parts — the dilation of the trivial (empty) shortcut.
func (p *Partition) MaxPartDiameter() int32 {
	sets := make([]graph.AmongSet, len(p.parts))
	for i, part := range p.parts {
		sets[i].S = part.Nodes
	}
	diam, _ := graph.DiametersAmong(nil, p.g, sets) // a nil ctx never cancels
	var maxd int32
	for _, d := range diam {
		maxd = max(maxd, d)
	}
	return maxd
}

// PartOfTable returns the node → part-index table (-1 for nodes outside
// every part), as a shared read-only slice for zero-copy persistence.
func (p *Partition) PartOfTable() []int32 { return p.partOf }

// RawPartition reassembles a Partition from previously validated raw state
// — the persistence load path. parts and partOf are aliased, not copied;
// NewPartition's connectivity and disjointness validation is NOT repeated
// here, so callers must only pass arrays produced by a validated Partition
// (the snapshot loader checks the cheap structural facts — ranges,
// partOf/parts agreement — before calling).
func RawPartition(g *graph.Graph, parts []Part, partOf []int32) (*Partition, error) {
	const op = "shortcut.RawPartition"
	if len(partOf) != g.NumNodes() {
		return nil, reproerr.Invalid(op, "partOf length %d, want %d nodes", len(partOf), g.NumNodes())
	}
	return &Partition{g: g, parts: parts, partOf: partOf}, nil
}
