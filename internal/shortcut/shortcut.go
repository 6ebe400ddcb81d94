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
	// them in ascending order). The lists are read-only: GhaffariHaeupler
	// gives every part that gets one the same list, while the
	// constructions, saturated ones included, give each large part its own.
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
// that also appears in Hi counts once for part i. A list holds each edge
// once, so a part whose list has all m edges adds one to every edge: such
// saturated parts are counted, and added after the loop.
func (s *Shortcuts) edgeLoads() (count []int32, maxC int32) {
	g := s.P.Graph()
	m := g.NumEdges()
	count = make([]int32, m)
	mark := graph.NewBitset(m)
	var saturated int32
	for i := 0; i < s.P.NumParts(); i++ {
		if len(s.h(i)) == m {
			saturated++
			continue
		}
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
		for _, e := range s.h(i) {
			mark.Set(e)
		}
		mark.ForEach(func(e int32) { count[e]++ })
	}
	for e := range count {
		count[e] += saturated
		maxC = max(maxC, count[e])
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
// at most exactCutoff nodes the per-part diameter is computed exactly;
// larger parts fall back to a certified 2-approximation from the leader's
// eccentricity. Both come from one packed bit-parallel BFS over every
// part's augmented view (see graph.DiametersAmong). exactCutoff ≤ 0 means
// always exact. A disconnected augmented part yields an error (Build
// never produces one: Step 1 keeps G[Si] intact).
func (s *Shortcuts) Dilation(exactCutoff int) (Quality, error) {
	return s.DilationCtx(nil, exactCutoff)
}

// DilationCtx is Dilation with cooperative cancellation, checked between
// 64-source sweeps. A nil ctx behaves like context.Background.
func (s *Shortcuts) DilationCtx(ctx context.Context, exactCutoff int) (Quality, error) {
	partDil, err := s.PartDilations(ctx, exactCutoff)
	if err != nil {
		return Quality{Exact: true}, err
	}
	return AggregateQuality(partDil, s.Congestion()), nil
}

// PartDilations measures every part's dilation individually (each returned
// Quality has Congestion 0), cancelable between 64-source sweeps. This is
// the per-part record the dynamic snapshot path caches so a delta
// re-measures only touched parts; AggregateQuality folds it back into
// DilationCtx's result.
func (s *Shortcuts) PartDilations(ctx context.Context, exactCutoff int) ([]Quality, error) {
	parts := make([]int, s.P.NumParts())
	for i := range parts {
		parts[i] = i
	}
	return s.DilationsOf(ctx, parts, exactCutoff)
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

// PartDilation measures the dilation of part i's augmented subgraph alone.
// The returned Quality's Congestion field is zero; callers holding a
// prebuilt Shortcuts combine it with the congestion they measured once.
// exactCutoff as in Dilation.
func (s *Shortcuts) PartDilation(i, exactCutoff int) (Quality, error) {
	q, err := s.DilationsOf(nil, []int{i}, exactCutoff)
	if err != nil {
		return Quality{Exact: true}, err
	}
	return q[0], nil
}

// DilationsOf measures the dilations of the listed distinct parts (out[k]
// is parts[k]'s, with Congestion 0) — the entry point the serving layer's
// delta update uses to re-measure only the parts a delta touched. Every
// listed part is one set of a single graph.DiametersAmong pass, cancelable
// between 64-source sweeps: a part of at most exactCutoff nodes is measured
// from all of its nodes, for its exact dilation, and a larger part from its
// leader alone, for the [ecc, 2·ecc] bracket of the leader's eccentricity.
// exactCutoff as in Dilation. A part listed twice or out of range is
// invalid input. A disconnected augmented part fails the call, naming the
// first such part in list order.
func (s *Shortcuts) DilationsOf(ctx context.Context, parts []int, exactCutoff int) ([]Quality, error) {
	const op = "shortcut.PartDilation"
	listed := make([]bool, s.P.NumParts())
	sets := make([]graph.AmongSet, len(parts))
	for k, i := range parts {
		if i < 0 || i >= len(listed) {
			return nil, reproerr.Invalid(op, "part %d out of range [0,%d)", i, len(listed))
		}
		if listed[i] {
			return nil, reproerr.Invalid(op, "part %d listed twice", i)
		}
		listed[i] = true
		part := s.P.Part(i)
		sets[k] = graph.AmongSet{S: part.Nodes, H: s.h(i)}
		if exactCutoff > 0 && len(part.Nodes) > exactCutoff {
			sets[k].Src = []graph.NodeID{part.Leader}
		}
	}
	diam, err := graph.DiametersAmong(ctx, s.P.Graph(), sets)
	if err != nil {
		return nil, reproerr.FromContext("shortcut.Dilation", err)
	}
	out := make([]Quality, len(parts))
	for k, d := range diam {
		switch {
		case d < 0:
			return nil, reproerr.Invalid(op, "part %d disconnected in augmented subgraph", parts[k])
		case sets[k].Src == nil:
			out[k] = Quality{DilationLo: d, DilationHi: d, Exact: true}
		default:
			out[k] = Quality{DilationLo: d, DilationHi: 2 * d}
		}
	}
	return out, nil
}

// h returns part i's shortcut edges (nil when H does not cover it).
func (s *Shortcuts) h(i int) []graph.EdgeID {
	if i < len(s.H) {
		return s.H[i]
	}
	return nil
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
