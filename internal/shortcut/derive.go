package shortcut

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// DeriveSeeded carries a BuildSeeded assignment through a graph delta: it
// returns the assignment BuildSeeded gives the post-delta graph with the
// same seed and params, and the parts whose list changed under the delta's
// edge remap, ascending. p2 is the partition rebound to the post-delta
// graph, old the pre-delta assignment, rm the delta's edge remap and
// inserted the new EdgeIDs of the inserted edges.
//
// An edge's membership depends only on the seed, its endpoints and their
// large parts (seededSampler's edgeMask, the function BuildSeeded draws
// every edge by), so no surviving edge is drawn again:
//
//  1. Each old list is carried through rm.OldToNew, dropping deleted edges;
//     a part that lost an edge is touched. The remap keeps surviving edges
//     in order, so the lists stay ascending.
//  2. Each inserted edge (inserted lists distinct edges) joins the large
//     parts its edgeMask holds: those of its endpoints (Step 1) and those
//     its seeded draws hit (Step 2); a part that gained an edge is touched.
//
// At p ≥ 1 every large part's list is all of E (see saturated), so the
// lists are rebuilt without reading old, and every large part is touched
// unless the delta left E unchanged.
//
// old's lists are read while remapped: an entry outside the old graph's
// edge range, or a list that is not strictly ascending, fails the call
// with KindCorrupt (a snapshot loaded without verification checks
// neither). Every returned list is newly allocated, so the result never
// aliases old.
func DeriveSeeded(p2 *Partition, old *Shortcuts, rm *graph.DeltaRemap, inserted []graph.EdgeID, params Params, seed uint64) (*Shortcuts, []int, error) {
	const op = "shortcut.DeriveSeeded"
	numParts := p2.NumParts()
	if numParts != len(old.H) {
		return nil, nil, reproerr.Invalid(op, "partition has %d parts, assignment %d", numParts, len(old.H))
	}
	g := p2.Graph()
	large := p2.LargeParts(int(params.KD))
	if params.P >= 1 {
		var touched []int
		if len(inserted) > 0 || len(rm.OldToNew) != g.NumEdges() {
			touched = large
		}
		return saturated(p2, params, large, g.NumEdges()), touched, nil
	}

	// The inserted edges first, each through the per-edge mask BuildSeeded
	// draws it by, so that each list below is allocated once, at its final
	// size.
	largeIdxOf := largeIndex(p2, large)
	additions := make([][]graph.EdgeID, numParts)
	s := newSeededSampler(seed, len(large), params)
	mask := make([]uint64, (len(large)+63)>>6)
	for _, e := range inserted {
		u, v := g.EdgeEndpoints(e)
		clear(mask)
		s.edgeMask(mask, u, v, largeOf(p2, largeIdxOf, u), largeOf(p2, largeIdxOf, v))
		for w, word := range mask {
			for ; word != 0; word &= word - 1 {
				pi := large[w<<6|bits.TrailingZeros64(word)]
				additions[pi] = append(additions[pi], e)
			}
		}
	}

	newH := make([][]graph.EdgeID, numParts)
	var touched []int
	for pi, h := range old.H {
		add := additions[pi]
		slices.Sort(add)
		if len(h) == 0 && len(add) == 0 {
			continue
		}
		out := make([]graph.EdgeID, 0, len(h)+len(add))
		prev := graph.EdgeID(-1)
		for _, e := range h {
			if e <= prev || int(e) >= len(rm.OldToNew) {
				return nil, nil, reproerr.Errorf(op, reproerr.KindCorrupt,
					"part %d: shortcut edge %d after %d, want strictly ascending in [0,%d)", pi, e, prev, len(rm.OldToNew))
			}
			prev = e
			if ne := rm.OldToNew[e]; ne >= 0 {
				out = append(out, ne)
			}
		}
		if len(out) != len(h) || len(add) > 0 {
			touched = append(touched, pi)
		}
		newH[pi] = mergeInto(out, add)
	}
	return &Shortcuts{P: p2, H: newH, Params: params}, touched, nil
}

// mergeInto merges add into base, both ascending and disjoint, within
// base's spare capacity (at least len(add)), from the back.
func mergeInto(base, add []graph.EdgeID) []graph.EdgeID {
	i, k := len(base)-1, len(base)+len(add)
	out := base[:k]
	for j := len(add) - 1; j >= 0; j-- {
		for ; i >= 0 && out[i] > add[j]; i-- {
			k--
			out[k] = out[i]
		}
		k--
		out[k] = add[j]
	}
	return out
}
