package load

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// Runner executes one Schedule against one Backend, open-loop.
type Runner struct {
	Schedule *Schedule
	Backend  Backend
	// Server, when set, is the server the Backend serves through. Every
	// delivered answer is checked against reference servers over its
	// snapshots at its seed, and, when it is store-backed, the scheduled
	// updates are applied to the store's snapshot and swapped in at their
	// instants, racing the query stream. nil skips updates and the check:
	// the external-lcsserve case, where the remote snapshot is out of
	// reach.
	Server *serve.Server
}

// Result is one scenario's outcome: offered-vs-delivered accounting, the
// latency and queue-wait histograms, and the torn-answer verdict.
type Result struct {
	Backend string
	// Offered is the scheduled arrival count; Dispatched the arrivals that
	// acquired an in-flight slot; Overflow the arrivals dropped at the
	// MaxInFlight cap (counted, never blocked — blocking would close the
	// loop and reintroduce coordinated omission).
	Offered, Dispatched, Overflow int
	// Delivered..Failed classify the dispatched queries' outcomes.
	Delivered, Shed, DeadlineExceeded, Canceled, Failed int64
	// UpdatesApplied counts completed hot swaps; Generations the snapshot
	// chain length (updates + 1).
	UpdatesApplied, Generations int
	// Checked/Torn are the attribution counts: every delivered answer is
	// checked, and must equal its reference in some generation of its
	// window (Torn == 0). TornChecked is false when no Server was attached
	// (external wire target).
	Checked, Torn int
	TornChecked   bool
	Elapsed       time.Duration
	// OfferedRate is the scheduled rate over the configured duration;
	// DeliveredRate the delivered count over the actual elapsed time — the
	// gap is saturation (shed, deadline, overflow).
	OfferedRate, DeliveredRate float64
	// Latency is delivered-query latency measured from the SCHEDULED
	// arrival (so dispatch lag counts against the server, the open-loop
	// convention); QueueWait is the dispatch lag alone.
	Latency, QueueWait obs.HistogramSnapshot
	// FailureSample holds up to four distinct failure messages for triage.
	FailureSample []string
}

// delivery is one delivered answer's record: when its call was sent and
// returned (offsets from the run start) and what the check compares; the
// zero record marks a query that was not delivered. The slice of them is
// allocated before the run, and each element is written only by the
// goroutine serving it.
type delivery struct {
	sent, done time.Duration
	obs        Observation
}

// swap is one update's Store.Swap call, as offsets from the run start.
type swap struct{ start, end time.Duration }

// Run executes the schedule. The returned Result is valid even when err is
// non-nil for a context cancellation — it then covers the portion that ran.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	const op = "load.run"
	if r.Schedule == nil || r.Backend == nil {
		return nil, reproerr.Invalid(op, "Schedule and Backend are required")
	}
	sched := r.Schedule
	p := sched.Params.withDefaults()
	var store *serve.Store
	var chain []*serve.Snapshot
	if r.Server != nil {
		store = r.Server.Store()
		chain = append(chain, r.Server.Snapshot())
	}
	if len(sched.Updates) > 0 && store == nil {
		return nil, reproerr.Invalid(op, "scheduled updates require a store-backed Server to swap against")
	}
	res := &Result{Backend: r.Backend.Name(), Offered: len(sched.Events)}

	var latHist, qwHist obs.Histogram
	var delivered, shed, deadline, canceled, failed atomic.Int64
	var failMu sync.Mutex
	var failures []string
	deliveries := make([]delivery, len(sched.Events))
	var swaps []swap

	start := time.Now()

	// Updater: applies each scheduled delta to the chain tip at its instant
	// and swaps it in under the live query stream. Single writer — chain
	// and swaps need no lock (the check below reads them only after
	// updWg.Wait).
	var updWg sync.WaitGroup
	var updErr error
	if len(sched.Updates) > 0 {
		updWg.Add(1)
		go func() {
			defer updWg.Done()
			timer := newStoppedTimer()
			defer timer.Stop()
			for i, u := range sched.Updates {
				if !sleepUntil(ctx, timer, start, u.At) {
					return
				}
				next, err := serve.ApplyDelta(ctx, chain[len(chain)-1], u.Delta, serve.DeltaOptions{})
				if err != nil {
					updErr = fmt.Errorf("update %d: %w", i, err)
					return
				}
				s := swap{start: time.Since(start)}
				store.Swap(next)
				s.end = time.Since(start)
				swaps = append(swaps, s)
				chain = append(chain, next)
			}
		}()
	}

	// Dispatcher: fire each arrival at its scheduled instant regardless of
	// outstanding work, bounded only by the MaxInFlight safety cap.
	sem := make(chan struct{}, p.MaxInFlight)
	var qWg sync.WaitGroup
	timer := newStoppedTimer()
dispatch:
	for i, ev := range sched.Events {
		if !sleepUntil(ctx, timer, start, ev.At) {
			break dispatch
		}
		select {
		case sem <- struct{}{}:
		default:
			res.Overflow++
			continue
		}
		res.Dispatched++
		wait := time.Since(start) - ev.At
		qWg.Add(1)
		go func(d *delivery, ev Event, wait time.Duration) {
			defer func() { <-sem; qWg.Done() }()
			qctx, cancel := context.WithTimeout(ctx, p.Timeout)
			sent := time.Since(start)
			comp, err := r.Backend.Do(qctx, ev.Query)
			done := time.Since(start)
			cancel()
			if err != nil {
				switch kind := reproerr.KindOf(err); {
				case kind == reproerr.KindBudgetExceeded:
					shed.Add(1)
				case kind == reproerr.KindDeadline || errors.Is(err, context.DeadlineExceeded):
					deadline.Add(1)
				case kind == reproerr.KindCanceled || errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					failed.Add(1)
					failMu.Lock()
					if len(failures) < 4 {
						failures = append(failures, err.Error())
					}
					failMu.Unlock()
				}
				return
			}
			// Latency from the scheduled arrival, not the dispatch — the
			// coordinated-omission-free measurement this package exists for.
			delivered.Add(1)
			latHist.Observe(int64(done - ev.At))
			if wait < 0 {
				wait = 0
			}
			qwHist.Observe(int64(wait))
			*d = delivery{sent: sent, done: done, obs: Observation{Query: ev.Query}}
			switch ev.Query.(type) {
			case serve.SSSPQuery:
				d.obs.Hash = RowHash(comp.Dist)
			case serve.MSTQuery:
				d.obs.Hash = EdgeHash(comp.TreeEdges)
			default:
				d.obs.Answer = comp.Answer
			}
		}(&deliveries[i], ev, wait)
	}
	qWg.Wait()
	updWg.Wait()
	timer.Stop()
	res.Elapsed = time.Since(start)
	if updErr != nil {
		return nil, fmt.Errorf("%s: %w", op, updErr)
	}

	res.Delivered = delivered.Load()
	res.Shed = shed.Load()
	res.DeadlineExceeded = deadline.Load()
	res.Canceled = canceled.Load()
	res.Failed = failed.Load()
	res.FailureSample = failures
	res.OfferedRate = float64(res.Offered) / p.Duration.Seconds()
	if res.Elapsed > 0 {
		res.DeliveredRate = float64(res.Delivered) / res.Elapsed.Seconds()
	}
	res.Latency = latHist.Snapshot()
	res.QueueWait = qwHist.Snapshot()
	if r.Server != nil {
		res.UpdatesApplied = len(swaps)
		res.Generations = len(chain)
		res.TornChecked = true
		ck := NewChecker(chain, r.Server.Seed())
		for i := range deliveries {
			d := &deliveries[i]
			if d.obs.Query == nil {
				continue
			}
			d.obs.Lo, d.obs.Hi = window(swaps, d.sent, d.done)
			gen, err := ck.Attribute(d.obs)
			if err != nil {
				return nil, fmt.Errorf("%s: check: %w", op, err)
			}
			res.Checked++
			if gen < 0 {
				res.Torn++
			}
		}
	}
	if ctx.Err() != nil {
		return res, reproerr.FromContext(op, ctx.Err())
	}
	return res, nil
}

// window bounds the generation an answer may come from: its query's lease
// pinned the store after sent and before done, so every swap that returned
// by sent is in, and no swap that started after done can be.
func window(swaps []swap, sent, done time.Duration) (lo, hi int) {
	for _, s := range swaps {
		if s.end <= sent {
			lo++
		}
		if s.start <= done {
			hi++
		}
	}
	return lo, hi
}

// newStoppedTimer returns a drained timer ready for Reset.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// sleepUntil blocks until `at` on the run clock (or returns immediately if
// already past). Returns false when ctx fired first.
func sleepUntil(ctx context.Context, timer *time.Timer, start time.Time, at time.Duration) bool {
	d := at - time.Since(start)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer.Reset(d)
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		if !timer.Stop() {
			<-timer.C
		}
		return false
	}
}
