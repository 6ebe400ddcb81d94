package load

import (
	"math"
	"reflect"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Observation is one delivered answer's checkable material: the query it
// answers; the RowHash of an sssp row or the EdgeHash of an mst tree, taken
// at delivery; the whole answer for mincut, twoecss and quality; and the
// window [Lo, Hi] of generations it may come from.
type Observation struct {
	Query  serve.Query
	Hash   uint64
	Answer serve.Answer
	Lo, Hi int
}

// Checker attributes answers to the generations of a snapshot chain (base
// snapshot first). A reference answer is computed lazily, once per distinct
// (query, generation), by a one-executor server over that generation's
// snapshot at the serving server's seed; an answer is right only if it
// equals the reference of some generation in its window. A Checker is not
// safe for concurrent use.
type Checker struct {
	chain []*serve.Snapshot
	seed  int64
	refs  []*serve.Server
	memo  map[refKey]any
	row   []float64
}

type refKey struct {
	q   serve.Query
	gen int
}

// NewChecker returns a checker over chain whose reference servers run at
// seed: mincut answers depend on it, so it must be the serving server's.
func NewChecker(chain []*serve.Snapshot, seed int64) *Checker {
	return &Checker{chain: chain, seed: seed, refs: make([]*serve.Server, len(chain)), memo: map[refKey]any{}}
}

// Attribute returns the generation o's answer matches (newest first), or -1
// when it matches none in its window: a wrong or torn answer. The error is
// a reference server's.
func (c *Checker) Attribute(o Observation) (int, error) {
	for gen := min(o.Hi, len(c.chain)-1); gen >= o.Lo; gen-- {
		ref, err := c.reference(o.Query, gen)
		if err != nil {
			return -1, err
		}
		switch o.Query.(type) {
		case serve.SSSPQuery, serve.MSTQuery:
			if o.Hash == ref.(uint64) {
				return gen, nil
			}
		default:
			if o.Answer != nil && reflect.DeepEqual(o.Answer, ref) {
				return gen, nil
			}
		}
	}
	return -1, nil
}

// reference computes (once) what generation gen answers q with: the row
// hash for sssp, the tree's edge hash for mst, the whole answer otherwise.
func (c *Checker) reference(q serve.Query, gen int) (any, error) {
	key := refKey{q, gen}
	if v, ok := c.memo[key]; ok {
		return v, nil
	}
	if c.refs[gen] == nil {
		c.refs[gen] = serve.NewServer(c.chain[gen], serve.ServerOptions{Executors: 1, Seed: c.seed})
	}
	var v any
	switch q := q.(type) {
	case serve.SSSPQuery:
		row, err := c.refs[gen].ServeSSSPInto(c.row, q.Source)
		if err != nil {
			return nil, err
		}
		c.row = row
		v = RowHash(row)
	case serve.MSTQuery:
		v = EdgeHash(c.chain[gen].Tree())
	default:
		a, err := c.refs[gen].Serve(q)
		if err != nil {
			return nil, err
		}
		v = a
	}
	c.memo[key] = v
	return v, nil
}

// RowHash folds a distance row's IEEE-754 bits word by word. Each step is a
// bijection of the running state, so rows that differ in a single bit of a
// single distance always hash apart; it costs a few µs per row, cheap enough
// to run on every delivered answer.
func RowHash(row []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, d := range row {
		h ^= math.Float64bits(d)
		h *= 1099511628211
	}
	return h
}

// EdgeHash is RowHash over an edge-id list.
func EdgeHash(edges []graph.EdgeID) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range edges {
		h ^= uint64(uint32(e))
		h *= 1099511628211
	}
	return h
}
