package shortcut

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Shortcuts is a computed shortcut assignment: part i is augmented with the
// edge set H[i] ⊆ E(G). H[i] is nil/empty for parts that received no
// shortcut (small parts).
type Shortcuts struct {
	P *Partition
	// H lists each part's shortcut edges once each (the constructions list
	// them in ascending order). The lists are read-only: Full and
	// GhaffariHaeupler give every part that gets one the same list, while
	// the constructions, saturated ones included, give each large part its
	// own.
	H [][]graph.EdgeID
	// Params records the construction parameters used (for reporting).
	Params Params
}

// Params are the quantities of Section 2's construction, recorded on every
// result for reporting: kD = n^((D-2)/(2D-2)), N = ⌈n/kD⌉, and the per-
// repetition sampling probability p = min(1, logFactor·ln n·kD/N).
type Params struct {
	Diameter  int
	KD        float64
	N         int
	P         float64
	Reps      int
	LogFactor float64
}

// DeriveParams computes the construction parameters for an n-vertex graph of
// diameter d. logFactor scales the log n term of the sampling probability
// (1.0 reproduces the paper's constants; experiments at small n may shrink
// it to keep p < 1 and expose the asymptotic shape — see EXPERIMENTS.md).
func DeriveParams(n, d int, reps int, logFactor float64) Params {
	if logFactor <= 0 {
		logFactor = 1
	}
	kd := 1.0
	if d > 2 {
		kd = math.Pow(float64(n), float64(d-2)/float64(2*d-2))
	}
	bigN := int(math.Ceil(float64(n) / kd))
	if bigN < 1 {
		bigN = 1
	}
	p := logFactor * math.Log(float64(n)) * kd / float64(bigN)
	if p > 1 {
		p = 1
	}
	if reps <= 0 {
		reps = d
	}
	return Params{Diameter: d, KD: kd, N: bigN, P: p, Reps: reps, LogFactor: logFactor}
}

// Quality is a measured (congestion, dilation) pair with its certification
// level.
type Quality struct {
	Congestion int
	// DilationLo ≤ true dilation ≤ DilationHi. When Exact, both are equal.
	DilationLo int32
	DilationHi int32
	Exact      bool
}

// Sum returns congestion + dilation (upper bound), the paper's quality
// measure c + d.
func (q Quality) Sum() int { return q.Congestion + int(q.DilationHi) }

func (q Quality) String() string {
	if q.Exact {
		return fmt.Sprintf("c=%d d=%d (exact)", q.Congestion, q.DilationHi)
	}
	return fmt.Sprintf("c=%d d∈[%d,%d]", q.Congestion, q.DilationLo, q.DilationHi)
}

// edgeLoads returns, per edge e, the number of augmented subgraphs
// G[Si] ∪ Hi containing e, and the largest such count. An edge inside G[Si]
// that also appears in Hi counts once for part i.
func (s *Shortcuts) edgeLoads() (count []int32, maxC int32) {
	g := s.P.Graph()
	count = make([]int32, g.NumEdges())
	mark := graph.NewBitset(g.NumEdges())
	for i := 0; i < s.P.NumParts(); i++ {
		mark.Reset()
		part := s.P.Part(i)
		for _, u := range part.Nodes {
			g.Arcs(u, func(_ int32, v graph.NodeID, e graph.EdgeID) bool {
				if s.P.PartOf(v) == int32(i) {
					mark.Set(e)
				}
				return true
			})
		}
		if i < len(s.H) {
			for _, e := range s.H[i] {
				mark.Set(e)
			}
		}
		mark.ForEach(func(e int32) { count[e]++ })
	}
	for _, c := range count {
		if c > maxC {
			maxC = c
		}
	}
	return count, maxC
}

// Congestion computes the exact congestion: the maximum over edges e of the
// number of augmented subgraphs G[Si] ∪ Hi containing e. An edge inside
// G[Si] that also appears in Hi counts once for part i.
func (s *Shortcuts) Congestion() int {
	_, maxC := s.edgeLoads()
	return int(maxC)
}

// CongestionProfile returns the full per-edge congestion histogram: hist[c]
// is the number of edges with congestion exactly c. Used by experiment E3 to
// compare the distribution against the Chernoff bound.
func (s *Shortcuts) CongestionProfile() []int {
	count, maxC := s.edgeLoads()
	hist := make([]int, maxC+1)
	for _, c := range count {
		hist[c]++
	}
	return hist
}

// Dilation measures the dilation of the shortcut assignment. For parts with
// at most exactCutoff nodes the per-part diameter is computed exactly (a
// bit-parallel BFS from every part node inside the augmented view, see
// graph.AugmentedView.DiameterAmong); larger parts fall back to a certified
// 2-approximation from the leader's eccentricity. exactCutoff ≤ 0
// means always exact. A disconnected augmented part yields an error (Build
// never produces one: Step 1 keeps G[Si] intact).
func (s *Shortcuts) Dilation(exactCutoff int) (Quality, error) {
	return s.DilationCtx(nil, exactCutoff)
}

// DilationCtx is Dilation with cooperative cancellation, checked between
// parts (the per-part BFS sweep is the expensive unit). A nil ctx behaves
// like context.Background.
func (s *Shortcuts) DilationCtx(ctx context.Context, exactCutoff int) (Quality, error) {
	partDil, err := s.PartDilations(ctx, exactCutoff)
	if err != nil {
		return Quality{Exact: true}, err
	}
	return AggregateQuality(partDil, s.Congestion()), nil
}

// PartDilations measures every part's dilation individually (each returned
// Quality has Congestion 0), cancelable between parts. This is the per-part
// record the dynamic snapshot path caches so a delta re-measures only
// touched parts; AggregateQuality folds it back into DilationCtx's result.
func (s *Shortcuts) PartDilations(ctx context.Context, exactCutoff int) ([]Quality, error) {
	out := make([]Quality, s.P.NumParts())
	for i := range out {
		if err := ctxCheck("shortcut.Dilation", ctx); err != nil {
			return nil, err
		}
		pq, err := s.PartDilation(i, exactCutoff)
		if err != nil {
			return nil, err
		}
		out[i] = pq
	}
	return out, nil
}

// AggregateQuality folds per-part dilations and a congestion measurement
// into one Quality — the single fold shared by DilationCtx and the serving
// layer's snapshot build and delta update, so a delta snapshot's quality is
// definitionally identical to a rebuilt one's.
func AggregateQuality(partDil []Quality, congestion int) Quality {
	q := Quality{Exact: true, Congestion: congestion}
	for _, pq := range partDil {
		if !pq.Exact {
			q.Exact = false
		}
		if pq.DilationLo > q.DilationLo {
			q.DilationLo = pq.DilationLo
		}
		if pq.DilationHi > q.DilationHi {
			q.DilationHi = pq.DilationHi
		}
	}
	return q
}

// PartDilation measures the dilation of part i's augmented subgraph alone —
// the per-part entry point the serving layer's delta update uses to
// re-measure only the parts a delta touched, without the all-parts sweep
// (and the global congestion recount). The returned Quality's Congestion field is
// zero; callers holding a prebuilt Shortcuts combine it with the congestion
// they measured once. exactCutoff as in Dilation.
func (s *Shortcuts) PartDilation(i, exactCutoff int) (Quality, error) {
	var q Quality
	q.Exact = true
	if i < 0 || i >= s.P.NumParts() {
		return q, reproerr.Invalid("shortcut.PartDilation", "part %d out of range [0,%d)", i, s.P.NumParts())
	}
	part := s.P.Part(i)
	var h []graph.EdgeID
	if i < len(s.H) {
		h = s.H[i]
	}
	view := graph.NewAugmentedView(s.P.Graph(), part.Nodes, h)
	if exactCutoff <= 0 || len(part.Nodes) <= exactCutoff {
		d := view.DiameterAmong(part.Nodes)
		if d < 0 {
			return q, reproerr.Invalid("shortcut.PartDilation", "part %d disconnected in augmented subgraph", i)
		}
		q.DilationLo, q.DilationHi = d, d
		return q, nil
	}
	ecc := view.EccentricityAmong(part.Leader, part.Nodes)
	if ecc < 0 {
		return q, reproerr.Invalid("shortcut.PartDilation", "part %d disconnected in augmented subgraph", i)
	}
	q.Exact = false
	q.DilationLo, q.DilationHi = ecc, 2*ecc
	return q, nil
}

// TotalShortcutEdges returns Σ|Hi|, the storage (and message-complexity
// driver) of the assignment.
func (s *Shortcuts) TotalShortcutEdges() int {
	total := 0
	for _, h := range s.H {
		total += len(h)
	}
	return total
}
