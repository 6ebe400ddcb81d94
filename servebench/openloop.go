package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// Request outcomes. Everything but outOK counts as failed.
const (
	outOK uint8 = iota
	outShed
	outDeadline
	outCanceled
	outError
	outDropped // never dispatched: the in-flight cap was exhausted
	outWrong   // delivered, but the answer failed its check
)

// maxInFlight caps outstanding open-loop requests. An arrival finding it
// exhausted is dropped and counted, never blocked: blocking would close the
// loop.
const maxInFlight = 4096

// queryTimeout is every request's deadline.
const queryTimeout = 10 * time.Second

// request is one open-loop arrival's record. The array of them is allocated
// before the window, and each element is written only by the goroutine
// serving it, so recording costs no lock and no allocation.
type request struct {
	kind serve.Kind
	arg  int64
	// due, sent and done are offsets from the window start: the scheduled
	// arrival, the call into the backend, and its return.
	due, sent, done time.Duration
	outcome         uint8
	// hash is the sssp row or MST edge-list hash; ans keeps the mincut,
	// twoecss and quality answers whole for the checker.
	hash uint64
	ans  serve.Answer
	// gen is the generation the checker attributed the answer to.
	gen int
}

func (r *request) latency() time.Duration { return r.done - r.due }

// caller serves one query through a load.Backend, returning the answer
// itself when the checker needs more than the Completion carries.
type caller func(ctx context.Context, q serve.Query) (load.Completion, serve.Answer, error)

// reqIDKey carries a request's index in its context, so a traced wire run
// can tag the HTTP request and link the server-side span to it.
type reqIDKey struct{}

// openLoop dispatches every scheduled arrival at its due instant, whether or
// not earlier requests have answered.
type openLoop struct {
	events []load.Event
	call   caller
	// spin is how long before each due instant the dispatcher stops
	// sleeping and yields instead: a bare sleep wakes ~0.5 ms late, which
	// is several times a library sssp answer; yielding lands within µs.
	spin time.Duration
	// tagRequests puts each request's index into its context (traced wire
	// runs only: it allocates).
	tagRequests bool
	// onDispatch, when set, runs on the dispatcher before each send.
	onDispatch func()
}

// run replays the schedule against the clock started at start and returns
// one record per event, plus the time the dispatcher spent yielding.
func (o *openLoop) run(ctx context.Context, start time.Time) ([]request, time.Duration) {
	reqs := make([]request, len(o.events))
	for i, ev := range o.events {
		reqs[i].kind, reqs[i].arg = queryKey(ev.Query)
		reqs[i].due = ev.At
	}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var spun time.Duration
	for i, ev := range o.events {
		s, ok := waitUntil(ctx, start, ev.At, o.spin)
		spun += s
		if !ok {
			for j := i; j < len(reqs); j++ {
				reqs[j].outcome = outCanceled
			}
			break
		}
		if o.onDispatch != nil {
			o.onDispatch()
		}
		r := &reqs[i]
		select {
		case sem <- struct{}{}:
		default:
			r.outcome = outDropped
			continue
		}
		wg.Add(1)
		go func(i int, q serve.Query) {
			defer func() { <-sem; wg.Done() }()
			qctx, cancel := context.WithTimeout(ctx, queryTimeout)
			defer cancel()
			if o.tagRequests {
				qctx = context.WithValue(qctx, reqIDKey{}, i)
			}
			r.sent = time.Since(start)
			comp, ans, err := o.call(qctx, q)
			r.done = time.Since(start)
			if err != nil {
				r.outcome = classify(err)
				return
			}
			switch {
			case comp.Dist != nil:
				r.hash = rowHash(comp.Dist)
			case comp.TreeEdges != nil:
				r.hash = edgeHash(comp.TreeEdges)
			}
			r.ans = ans
		}(i, ev.Query)
	}
	wg.Wait()
	return reqs, spun
}

// classify maps a failed call onto its outcome, as load.Runner does.
func classify(err error) uint8 {
	switch kind := reproerr.KindOf(err); {
	case kind == reproerr.KindBudgetExceeded:
		return outShed
	case kind == reproerr.KindDeadline || errors.Is(err, context.DeadlineExceeded):
		return outDeadline
	case kind == reproerr.KindCanceled || errors.Is(err, context.Canceled):
		return outCanceled
	}
	return outError
}

// waitUntil returns at offset `at` of the clock started at start: it sleeps
// until spin before the instant, then yields until it has passed. It reports
// the time spent yielding, and false if ctx ended first.
func waitUntil(ctx context.Context, start time.Time, at, spin time.Duration) (time.Duration, bool) {
	var spun time.Duration
	for {
		if ctx.Err() != nil {
			return spun, false
		}
		d := at - time.Since(start)
		if d <= 0 {
			return spun, true
		}
		if d > spin {
			time.Sleep(d - spin)
			continue
		}
		t0 := time.Now()
		runtime.Gosched()
		spun += time.Since(t0)
	}
}

// update is one scheduled hot swap's record.
type update struct {
	due        time.Duration
	applyStart time.Duration
	swapStart  time.Duration // ApplyDelta returned; Store.Swap called
	swapEnd    time.Duration // Store.Swap returned
	touched    int
}

// runUpdates applies each scheduled delta to the chain tip at its instant
// with serve.ApplyDelta and swaps the result in with Store.Swap, racing the
// query stream. It returns the records and the generation chain (base
// snapshot first).
func runUpdates(ctx context.Context, start time.Time, store *serve.Store, updates []load.Update, pending *atomic.Int64) ([]update, []*serve.Snapshot, error) {
	chain := []*serve.Snapshot{store.Snapshot()}
	recs := make([]update, 0, len(updates))
	for i, u := range updates {
		if _, ok := waitUntil(ctx, start, u.At, 0); !ok {
			break
		}
		rec := update{due: u.At, applyStart: time.Since(start)}
		next, err := serve.ApplyDelta(ctx, chain[len(chain)-1], u.Delta, serve.DeltaOptions{})
		if err != nil {
			return recs, chain, fmt.Errorf("update %d: %w", i, err)
		}
		rec.swapStart = time.Since(start)
		store.Swap(next)
		rec.swapEnd = time.Since(start)
		if ri := next.Repair(); ri != nil {
			rec.touched = len(ri.Touched)
		}
		storeMax(pending, store.Pending())
		recs = append(recs, rec)
		chain = append(chain, next)
	}
	return recs, chain, nil
}

func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// genWindow bounds the generation a request's answer may come from: its
// lease pinned the store after sent and before done, so every swap that
// returned by sent is in, and no swap that started after done can be.
func genWindow(ups []update, sent, done time.Duration) (lo, hi int) {
	for _, u := range ups {
		if u.swapEnd <= sent {
			lo++
		}
		if u.swapStart <= done {
			hi++
		}
	}
	return lo, hi
}

// quantile is the nearest-rank q-quantile of xs (sorted in place). It
// refuses a quantile with fewer than ten samples beyond it, so a p99 needs
// 1000 samples and a median 20.
func quantile(xs []float64, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("quantile %v outside (0,1)", q)
	}
	need := int(math.Ceil(10/(1-q) - 1e-9))
	if len(xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, need, len(xs))
	}
	return pct(xs, q), nil
}

// pct is the nearest-rank q-quantile of xs (sorted in place) with no
// sample floor, for per-layer diagnostics; 0 when xs is empty.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(q*float64(len(xs))))-1, 0)]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
