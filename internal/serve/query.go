package serve

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/reproerr"
	"repro/internal/shortcut"
	"repro/internal/twoecss"
)

// Kind identifies a query family.
type Kind uint8

const (
	KindSSSP Kind = iota
	KindMST
	KindMinCut
	KindTwoECSS
	KindQuality
	numKinds
)

// String returns the kind's lowercase name.
func (k Kind) String() string {
	switch k {
	case KindSSSP:
		return "sssp"
	case KindMST:
		return "mst"
	case KindMinCut:
		return "mincut"
	case KindTwoECSS:
		return "twoecss"
	case KindQuality:
		return "quality"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Query is one typed request against a Server. The five implementations are
// the corollaries' application family plus quality introspection.
type Query interface{ queryKind() Kind }

// SSSPQuery asks for approximate single-source shortest-path distances from
// Source through the snapshot's shortcut-MST (Corollary 4.2 shape).
type SSSPQuery struct{ Source graph.NodeID }

// MSTQuery asks for the snapshot's shortcut-MST (Corollary 1.2).
type MSTQuery struct{}

// MinCutQuery asks for an approximate global minimum cut via greedy tree
// packing seeded with the snapshot's shortcut-MST (Corollary 1.2 shape).
// Eps tightens the approximation by packing more trees: the packed count is
// mincut.DefaultTrees(n) = ⌈2·log2 n⌉ for Eps = 0, scaled by 1/Eps
// otherwise. Eps must pass mincut.CheckEps (0 or a finite value ≥
// mincut.MinEps), else the query fails with KindInvalidInput.
type MinCutQuery struct{ Eps float64 }

// TwoECSSQuery asks for the approximate minimum-weight 2-ECSS built on the
// snapshot's shortcut-MST (Corollary 4.3 shape).
type TwoECSSQuery struct{}

// QualityQuery asks for the quality of one part's augmented subgraph:
// the part's dilation and the assignment's congestion, both as measured when
// the snapshot was built or repaired.
type QualityQuery struct{ Part int }

func (SSSPQuery) queryKind() Kind    { return KindSSSP }
func (MSTQuery) queryKind() Kind     { return KindMST }
func (MinCutQuery) queryKind() Kind  { return KindMinCut }
func (TwoECSSQuery) queryKind() Kind { return KindTwoECSS }
func (QualityQuery) queryKind() Kind { return KindQuality }

// Answer is one typed response; its dynamic type matches the query's kind.
type Answer interface{ answerKind() Kind }

// SSSPAnswer holds within-tree distances from Source. Rounds/Messages are
// the marginal simulated cost of the answer: the log n fragment-contraction
// propagation phases (the MST itself was paid at snapshot build), charged
// identically to single and batched answers, and zero unless the
// snapshot descends from a build with SnapshotOptions.Distributed.
type SSSPAnswer struct {
	Source graph.NodeID
	Dist   []float64
	// Cost is the unified v2 accounting of the answer's marginal simulated
	// cost (field promotion keeps the v1 a.Rounds / a.Messages accessors
	// intact).
	cost.Cost
}

// MSTAnswer is the snapshot's shortcut-MST. Tree is shared read-only state —
// callers must not modify it.
type MSTAnswer struct {
	Tree   []graph.EdgeID
	Weight float64
}

// MinCutAnswer is the tree-packing approximation's outcome.
type MinCutAnswer struct {
	Value float64
	Side  []graph.NodeID
	Trees int
}

// TwoECSSAnswer is the 2-ECSS approximation's outcome.
type TwoECSSAnswer struct {
	Edges      []graph.EdgeID
	Weight     float64
	LowerBound float64
	Ratio      float64
}

// QualityAnswer is one part's quality: dilation of the part's augmented
// subgraph, congestion of the whole assignment (measured once at build).
type QualityAnswer struct {
	Part    int
	Quality shortcut.Quality
}

func (*SSSPAnswer) answerKind() Kind    { return KindSSSP }
func (*MSTAnswer) answerKind() Kind     { return KindMST }
func (*MinCutAnswer) answerKind() Kind  { return KindMinCut }
func (*TwoECSSAnswer) answerKind() Kind { return KindTwoECSS }
func (*QualityAnswer) answerKind() Kind { return KindQuality }

// serveMST answers an MSTQuery straight from the snapshot.
func (sn *Snapshot) serveMST() *MSTAnswer {
	return &MSTAnswer{Tree: sn.tree, Weight: sn.treeWeight}
}

// serveQuality answers a QualityQuery from the per-part dilation record the
// snapshot carries (measured at build or repair, persisted with it) plus the
// congestion cached with it.
func (sn *Snapshot) serveQuality(q QualityQuery) (*QualityAnswer, error) {
	if q.Part < 0 || q.Part >= len(sn.partDil) {
		return nil, reproerr.Invalid("serve", "part %d out of range [0,%d)", q.Part, len(sn.partDil))
	}
	pq := sn.partDil[q.Part]
	pq.Congestion = sn.quality.Congestion
	return &QualityAnswer{Part: q.Part, Quality: pq}, nil
}

// serveMinCut answers a MinCutQuery packing `trees` trees with the
// snapshot's tree as the first. rng must be the query-derived deterministic
// source.
func (sn *Snapshot) serveMinCut(ctx context.Context, trees int, rng *rand.Rand) (*MinCutAnswer, error) {
	res, err := mincut.Approx(sn.g, sn.w, mincut.ApproxOptions{
		Rng:       rng,
		Trees:     trees,
		Diameter:  sn.diameter,
		LogFactor: sn.logFactor,
		FirstTree: sn.tree,
		Ctx:       ctx,
	})
	if err != nil {
		return nil, err
	}
	return &MinCutAnswer{Value: res.Value, Side: res.Side, Trees: res.Trees}, nil
}

// serveTwoECSS answers a TwoECSSQuery on the snapshot's tree: the
// augmentation is deterministic, so no randomness is consumed.
func (sn *Snapshot) serveTwoECSS(ctx context.Context) (*TwoECSSAnswer, error) {
	res, err := twoecss.Approx(sn.g, sn.w, twoecss.Options{Tree: sn.tree, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return &TwoECSSAnswer{
		Edges:      res.Edges,
		Weight:     res.Weight,
		LowerBound: res.LowerBound,
		Ratio:      res.Ratio(),
	}, nil
}
