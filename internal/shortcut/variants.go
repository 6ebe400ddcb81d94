package shortcut

import (
	"math"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// The paper leaves two directions open (Section 1): derandomizing the
// construction, and reducing the message complexity from ˜O(m·kD) toward
// ˜O(m). The two variants below explore those directions experimentally;
// neither carries the paper's w.h.p. dilation guarantee (their dilation is
// measured by experiments A4/A5), but both preserve Step 1 and hence always
// produce connected augmented parts.

// BuildDeterministic is a derandomized analogue of the construction: instead
// of Bernoulli(p) draws, every directed arc joins exactly ⌈p·N'⌉ large parts
// per repetition, chosen by a fixed multiplicative-hash offset and stride.
// Congestion is then bounded deterministically (each arc contributes to at
// most Reps·⌈p·N'⌉ parts by construction); dilation loses its probabilistic
// guarantee and is evaluated empirically (experiment A4).
func BuildDeterministic(g *graph.Graph, p *Partition, opts Options) (*Shortcuts, error) {
	const op = "shortcut.BuildDeterministic"
	d, err := resolveDiameter(op, g, p, opts.Diameter)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	params := DeriveParams(n, d, opts.Reps, opts.LogFactor)
	large := p.LargeParts(int(params.KD))
	masks := newPartMasks(g.NumEdges(), len(large))
	if len(large) == 0 {
		return masks.collect(p, params, large), nil // no slots to stride over
	}
	largeIdxOf := largeIndex(p, large)
	masks.stepOne(g, p, largeIdxOf)
	// Per (arc, rep): join a block of `take` consecutive part slots starting
	// at a hash offset — a contiguous block guarantees exactly `take`
	// distinct parts regardless of the modulus.
	numLarge := len(large)
	take := int(math.Ceil(params.P * float64(numLarge)))
	if take > numLarge {
		take = numLarge
	}
	const (
		mixA = 0x9E3779B97F4A7C15 // golden-ratio mixing constants
		mixB = 0xBF58476D1CE4E5B9
	)
	for u := 0; u < n; u++ {
		uPart := p.PartOf(graph.NodeID(u))
		uLarge := int32(-1)
		if uPart >= 0 {
			uLarge = largeIdxOf[uPart]
		}
		lo, hi := g.ArcRange(graph.NodeID(u))
		for a := lo; a < hi; a++ {
			e := g.ArcEdge(a)
			for r := 0; r < params.Reps; r++ {
				h := (uint64(a)*mixA + uint64(r)*mixB) >> 1
				li := int32(h % uint64(numLarge))
				for t := 0; t < take; t++ {
					if li != uLarge {
						masks.set(li, e)
					}
					li = (li + 1) % int32(numLarge)
				}
			}
		}
	}
	return masks.collect(p, params, large), nil
}

// LocalOptions configures BuildLocal.
type LocalOptions struct {
	// Options carries the shared construction parameters; Rng is required.
	Options
	// Radius restricts Step 2's sampling to nodes within this many hops of
	// the part (0 selects ⌈D/2⌉ — the horizon the dilation argument's
	// shortcut trees actually traverse).
	Radius int
}

// BuildLocal is the message-efficient variant: Step 2's sampling is
// restricted to nodes within Radius hops of each part, so edges far from Si
// — which the dilation argument's D/2-layer shortcut trees can never use —
// are not sampled into Hi. Total shortcut size Σ|Hi| (the message-complexity
// driver) drops correspondingly; experiment A5 measures the quality impact.
func BuildLocal(g *graph.Graph, p *Partition, opts LocalOptions) (*Shortcuts, error) {
	const op = "shortcut.BuildLocal"
	if err := reproerr.RequireRng(op, opts.Rng); err != nil {
		return nil, err
	}
	d, err := resolveDiameter(op, g, p, opts.Diameter)
	if err != nil {
		return nil, err
	}
	radius := opts.Radius
	if radius <= 0 {
		radius = (d + 1) / 2
	}
	n := g.NumNodes()
	params := DeriveParams(n, d, opts.Reps, opts.LogFactor)
	large := p.LargeParts(int(params.KD))
	masks := newPartMasks(g.NumEdges(), len(large))
	masks.stepOne(g, p, largeIndex(p, large))
	// Per large part: restrict sampling to arcs whose tail is within radius
	// of the part (multi-source truncated BFS).
	for li, pi := range large {
		ball := graph.MultiSourceBFS(g, p.Part(pi).Nodes)
		for u := 0; u < n; u++ {
			if ball.Dist[u] == graph.Unreached || ball.Dist[u] > int32(radius) {
				continue
			}
			if p.PartOf(graph.NodeID(u)) == int32(pi) {
				continue // Step 2 samples only from nodes outside Si
			}
			lo, hi := g.ArcRange(graph.NodeID(u))
			for a := lo; a < hi; a++ {
				e := g.ArcEdge(a)
				for r := 0; r < params.Reps; r++ {
					if opts.Rng.Float64() < params.P {
						masks.set(int32(li), e)
						break // already in Hi; further repetitions are moot
					}
				}
			}
		}
	}
	return masks.collect(p, params, large), nil
}
