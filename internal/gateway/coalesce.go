package gateway

import (
	"context"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// coalesceResult is what one waiting request receives when its window
// flushes: the typed answer (sharing the batch execution's distance rows)
// or the whole batch's error.
type coalesceResult struct {
	ans *serve.SSSPAnswer
	err error
}

// ssspWaiter is one parked /v1/query sssp request: the root it asked for
// and the 1-buffered channel its result is delivered on (buffered so the
// flusher never blocks on a waiter whose deadline already expired).
type ssspWaiter struct {
	src graph.NodeID
	ch  chan coalesceResult
}

// coalescer folds concurrent sssp requests into shared batch executions: a
// request opens a window of length `window`; every sssp request arriving
// inside it joins the same ServeBatchCtx call, whose in-batch duplicate-
// root coalescing answers identical roots with one tree walk. The window
// flushes early at maxBatch waiters: the batch walks its distinct roots one
// after another on one executor, so the cap bounds how long it holds it.
//
// Waiters hold their admission slots while parked, so a coalescing gateway
// sheds at exactly the same depth as a non-coalescing one.
type coalescer struct {
	srv      *serve.Server
	base     context.Context // batch executions outlive any one waiter's deadline
	window   time.Duration
	maxBatch int
	m        *gwMetrics

	mu      sync.Mutex
	pending []ssspWaiter
	timer   *time.Timer
	gen     uint64 // id of the currently open window; bumped on every open
	closed  bool
	wg      sync.WaitGroup // in-flight flush executions; Add only under mu
}

func newCoalescer(srv *serve.Server, base context.Context, window time.Duration, maxBatch int, m *gwMetrics) *coalescer {
	return &coalescer{srv: srv, base: base, window: window, maxBatch: maxBatch, m: m}
}

// enqueue parks one sssp request in the current window and returns its
// result channel. ok=false means the coalescer is closed — the caller
// serves directly instead.
func (c *coalescer) enqueue(src graph.NodeID) (<-chan coalesceResult, bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	w := ssspWaiter{src: src, ch: make(chan coalesceResult, 1)}
	c.pending = append(c.pending, w)
	if len(c.pending) >= c.maxBatch {
		batch := c.takeLocked()
		c.mu.Unlock()
		go c.run(batch)
		return w.ch, true
	}
	if len(c.pending) == 1 {
		// First waiter opens the window. The timer captures the window's
		// generation so an expiry that loses the race against an early
		// flush (or Close) cannot drain a window it did not open — see
		// flushTimer.
		c.gen++
		gen := c.gen
		c.timer = time.AfterFunc(c.window, func() { c.flushTimer(gen) })
	}
	c.mu.Unlock()
	return w.ch, true
}

// takeLocked detaches the pending window (mu held) and accounts the
// in-flight execution. The wg.Add happens under mu so Close's wg.Wait can
// never race a late Add.
func (c *coalescer) takeLocked() []ssspWaiter {
	batch := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if len(batch) > 0 {
		c.wg.Add(1)
	}
	return batch
}

// flushTimer is the window-expiry path, running on the timer's goroutine.
// gen is the generation of the window that armed this timer. timer.Stop in
// takeLocked cannot stop a timer whose function already started, so an
// expiry can race an early MaxBatch flush (or Close) that drained the same
// window: by the time the expiry acquires mu, its window is gone and —
// worse — a NEW window may have opened. Flushing unconditionally here would
// drain that newer window prematurely (batch of one, coalescing defeated)
// and stop its timer. The generation check makes the stale expiry a no-op.
func (c *coalescer) flushTimer(gen uint64) {
	c.mu.Lock()
	if gen != c.gen || len(c.pending) == 0 {
		// Stale: the window this timer was armed for was already flushed
		// (early flush, Close), and any pending waiters belong to a newer
		// window with a live timer of its own.
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.run(batch)
}

// run executes one detached window as a single batched serve call and fans
// the aligned answers back out to the waiters.
func (c *coalescer) run(batch []ssspWaiter) {
	if len(batch) == 0 {
		return
	}
	defer c.wg.Done()

	queries := make([]serve.Query, len(batch))
	distinct := make(map[graph.NodeID]struct{}, len(batch))
	for i, w := range batch {
		queries[i] = serve.SSSPQuery{Source: w.src}
		distinct[w.src] = struct{}{}
	}
	c.m.flush(len(batch), len(distinct))

	answers, err := c.srv.ServeBatchCtx(c.base, queries)
	if err != nil {
		for _, w := range batch {
			w.ch <- coalesceResult{err: err}
		}
		return
	}
	for i, w := range batch {
		ans, _ := answers[i].(*serve.SSSPAnswer)
		w.ch <- coalesceResult{ans: ans}
	}
}

// close flushes the open window synchronously and waits for every in-flight
// execution, so no flusher goroutine outlives the gateway (the leak-checked
// shutdown contract). Requests arriving after close fall back to direct
// serving.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	batch := c.takeLocked()
	c.mu.Unlock()
	if len(batch) > 0 {
		c.run(batch)
	}
	c.wg.Wait()
}
