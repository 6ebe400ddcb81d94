package serve

import (
	"context"
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// ServeBatch answers a batch of queries on one checked-out executor with
// one pinned snapshot: against a store-backed server, a concurrent epoch
// swap never splits a batch across snapshots. SSSP queries are grouped and
// deduplicated by root — each distinct root runs one warm tree walk, the
// same walk Serve runs, and duplicate roots receive copies of its
// distances. Other kinds are answered individually. The returned slice is
// aligned with the input, and every answer equals what Serve returns for
// the same query, Cost included.
func (s *Server) ServeBatch(queries []Query) ([]Answer, error) {
	return s.ServeBatchCtx(nil, queries)
}

// ServeBatchCtx is ServeBatch with cooperative cancellation: the context
// gates the executor checkout and is checked between the SSSP group's
// walks and by every scheduled phase of the other kinds. A canceled batch
// returns a reproerr.KindCanceled/KindDeadline error wrapping ctx.Err()
// and leaves the executor pool fully usable for the next query. A nil ctx
// behaves like context.Background. A batch over the distance budget (see
// CheckBatchBudget) is refused before the checkout and moves no counter.
func (s *Server) ServeBatchCtx(ctx context.Context, queries []Query) ([]Answer, error) {
	if err := s.CheckBatchBudget(queries); err != nil {
		return nil, err
	}
	answers := make([]Answer, len(queries))

	var ssspIdx []int
	for i, q := range queries {
		if q == nil {
			return nil, reproerr.Invalid("serve", "batch query %d: nil query", i)
		}
		if _, ok := q.(SSSPQuery); ok {
			ssspIdx = append(ssspIdx, i)
		}
	}
	l, wait, err := s.timedCheckout(ctx)
	if err != nil {
		return nil, err
	}
	defer s.release(l)
	var in, roots int
	if len(ssspIdx) > 1 {
		t0 := s.m.nowIf()
		roots, err = s.serveSSSPGroup(ctx, l, queries, ssspIdx, answers)
		s.m.record(KindSSSP, l, int32(roots), wait, s.m.sinceNs(t0), err)
		if err != nil {
			return nil, fmt.Errorf("serve: batched sssp: %w", err)
		}
		in = len(ssspIdx)
	}
	for i, q := range queries {
		if answers[i] != nil {
			continue
		}
		t0 := s.m.nowIf()
		a, err := s.serveOn(ctx, l, q)
		s.m.record(q.queryKind(), l, 1, 0, s.m.sinceNs(t0), err)
		if err != nil {
			return nil, fmt.Errorf("serve: batch query %d (%v): %w", i, kindOf(q), err)
		}
		answers[i] = a
	}
	// Count only delivered work: a failed batch delivers nothing (including
	// its coalescing counts — the group may have executed, but its answers
	// were never handed out).
	for _, a := range answers {
		s.served[a.answerKind()].Add(1)
	}
	s.batches.Add(1)
	s.batched.Add(int64(len(queries)))
	s.coalesceIn.Add(int64(in))
	s.coalesceOut.Add(int64(roots))
	return answers, nil
}

// MaxBatchDists bounds the distances one batch may materialize: its sssp
// queries times the snapshot's node count. Every sssp query of a batch,
// duplicates included, gets its own n-float row before any answer is
// returned, so an unbounded batch could ask for gigabytes of rows.
// 1<<24 distances are 128 MiB of rows, 65 times a 64-root batch at n=4000.
const MaxBatchDists = 1 << 24

// CheckBatchBudget refuses, with a reproerr.KindBudgetExceeded error, a
// batch whose sssp queries would hold more than MaxBatchDists distances on
// the server's current snapshot. ServeBatchCtx runs it before the executor
// checkout; a front end can run it before its own admission.
func (s *Server) CheckBatchBudget(queries []Query) error {
	rows := 0
	for _, q := range queries {
		if _, ok := q.(SSSPQuery); ok {
			rows++
		}
	}
	if n := s.Snapshot().Graph().NumNodes(); rows*n > MaxBatchDists {
		return reproerr.Errorf("serve.batch", reproerr.KindBudgetExceeded,
			"%d sssp rows of %d distances exceed the batch budget of %d distances", rows, n, MaxBatchDists)
	}
	return nil
}

func kindOf(q Query) any {
	if q == nil {
		return "nil"
	}
	return q.queryKind()
}

// serveSSSPGroup answers every SSSP query of the batch through
// walkSSSPGroup, then materializes one answer per query, each owning its
// distances and charged the snapshot's per-query cost. It returns the
// number of distinct roots walked.
func (s *Server) serveSSSPGroup(ctx context.Context, l lease, queries []Query, idx []int, answers []Answer) (int, error) {
	ex := l.ex
	n := l.sn.g.NumNodes()
	srcs := ex.batchSrcs[:0]
	for _, i := range idx {
		srcs = append(srcs, queries[i].(SSSPQuery).Source)
	}
	ex.batchSrcs = srcs
	if cap(ex.batchDists) >= len(idx) {
		ex.batchDists = ex.batchDists[:len(idx)]
	} else {
		ex.batchDists = make([][]float64, len(idx))
	}
	for t := range ex.batchDists {
		ex.batchDists[t] = make([]float64, n) // escapes into the answer below
	}
	roots, err := s.walkSSSPGroup(ctx, l, srcs, ex.batchDists)
	if err != nil {
		return 0, err
	}
	c := cost.Cost{Rounds: l.sn.servRounds, Messages: l.sn.servMessages}
	for t, i := range idx {
		answers[i] = &SSSPAnswer{Source: srcs[t], Dist: ex.batchDists[t], Cost: c}
		ex.batchDists[t] = nil // the answer owns it now; don't pin it in the pool
	}
	return roots, nil
}

// walkSSSPGroup is ServeBatch's group core: it writes slot i's weighted
// distances from srcs[i] into dsts[i] (each already sized to NumNodes) and
// returns the number of distinct roots walked (0 on error).
//
// Duplicate sources are coalesced first: each distinct root runs one
// sssp.TreeIndex.DistancesInto walk on the executor's TreeScratch, and
// duplicate slots copy their first occurrence's row. The lease's
// prefetched Done channel is polled between roots, so a canceled group
// stops after at most one more walk.
func (s *Server) walkSSSPGroup(ctx context.Context, l lease, srcs []graph.NodeID, dsts [][]float64) (int, error) {
	sn, ex := l.sn, l.ex
	n := sn.g.NumNodes()
	// rootMark is all-zero outside this call: it holds 1+slot of each root's
	// first occurrence, and is re-zeroed below on every path (O(batch), not
	// O(n)), so a failed batch leaves no stale marks for the next one.
	ex.rootMark = growInt32(ex.rootMark, n)
	ex.firstSlot = growInt32(ex.firstSlot, len(srcs))
	var err error
	roots := 0
	for i, src := range srcs {
		if src < 0 || int(src) >= n {
			err = reproerr.Invalid("sssp", "source %d out of range [0,%d)", src, n)
			break
		}
		if m := ex.rootMark[src]; m != 0 {
			ex.firstSlot[i] = m - 1
			continue
		}
		ex.rootMark[src] = int32(i) + 1
		ex.firstSlot[i] = int32(i)
		roots++
	}
	for _, src := range srcs {
		if src >= 0 && int(src) < n {
			ex.rootMark[src] = 0
		}
	}
	if err != nil {
		return 0, err
	}

	for i, src := range srcs {
		if int(ex.firstSlot[i]) != i {
			continue
		}
		if l.done != nil {
			select {
			case <-l.done:
				return 0, reproerr.FromContext("serve", ctx.Err())
			default:
			}
		}
		if _, err := sn.ti.DistancesInto(dsts[i], src, &ex.treeScratch); err != nil {
			return 0, err
		}
	}
	for i, f := range ex.firstSlot[:len(srcs)] {
		if int(f) != i {
			copy(dsts[i], dsts[f]) // coalesced duplicate: fan the answer out
		}
	}
	s.m.group(len(srcs), roots)
	return roots, nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
