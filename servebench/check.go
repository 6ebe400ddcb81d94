package main

import (
	"reflect"

	"repro/internal/serve"
)

// observation is one delivered answer's checkable material: kind and
// argument, the row or edge-list hash (sssp, mst) or the whole answer
// (mincut, twoecss, quality), and the generation window it must come from.
type observation struct {
	kind   serve.Kind
	arg    int64
	hash   uint64
	ans    serve.Answer
	lo, hi int
}

// checker attributes answers to the generations of a snapshot chain. A
// reference answer is computed once per distinct (kind, argument,
// generation) by a same-seed server over that generation's snapshot; an
// answer is right only if it equals the reference of some generation in its
// window.
type checker struct {
	chain []*serve.Snapshot
	refs  []*serve.Server
	memo  map[refKey]any
	row   []float64
}

type refKey struct {
	kind serve.Kind
	arg  int64
	gen  int
}

func newChecker(chain []*serve.Snapshot) *checker {
	return &checker{chain: chain, refs: make([]*serve.Server, len(chain)), memo: map[refKey]any{}}
}

// attribute returns the generation o's answer matches (newest first), or
// -1 when it matches none in its window: a wrong or torn answer.
func (c *checker) attribute(o observation) (int, error) {
	hi := min(o.hi, len(c.chain)-1)
	for gen := hi; gen >= o.lo; gen-- {
		ref, err := c.reference(o.kind, o.arg, gen)
		if err != nil {
			return -1, err
		}
		if matches(o, ref) {
			return gen, nil
		}
	}
	return -1, nil
}

func matches(o observation, ref any) bool {
	switch o.kind {
	case serve.KindSSSP, serve.KindMST:
		return o.hash == ref.(uint64)
	}
	return o.ans != nil && reflect.DeepEqual(o.ans, ref)
}

// reference computes (once) the answer generation gen gives: the warm-walk
// row hash for sssp, the tree's edge hash for mst, the whole answer
// otherwise.
func (c *checker) reference(kind serve.Kind, arg int64, gen int) (any, error) {
	key := refKey{kind, arg, gen}
	if v, ok := c.memo[key]; ok {
		return v, nil
	}
	if c.refs[gen] == nil {
		c.refs[gen] = serve.NewServer(c.chain[gen], serve.ServerOptions{Executors: 1, Seed: serverSeed})
	}
	srv := c.refs[gen]
	var v any
	switch kind {
	case serve.KindSSSP:
		row, err := srv.ServeSSSPInto(c.row, queryOf(kind, arg).(serve.SSSPQuery).Source)
		if err != nil {
			return nil, err
		}
		c.row = row
		v = rowHash(row)
	case serve.KindMST:
		v = edgeHash(c.chain[gen].Tree())
	default:
		a, err := srv.Serve(queryOf(kind, arg))
		if err != nil {
			return nil, err
		}
		v = a
	}
	c.memo[key] = v
	return v, nil
}
