package serve

import (
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/sched"
)

// Outcome codes for trace records.
const (
	outcomeOK uint8 = iota
	outcomeError
	outcomeCanceled
)

// traceNames is the serve vocabulary the obs trace ring decodes with.
func traceNames() obs.TraceNames {
	kinds := make([]string, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		kinds[k] = k.String()
	}
	return obs.TraceNames{
		Kinds:    kinds,
		Outcomes: []string{"ok", "error", "canceled"},
	}
}

// serveMetrics is the server's instrument bundle, registered once at
// construction so the serving paths touch only preallocated atomics. A nil
// *serveMetrics (no registry configured) is the uninstrumented server:
// every method no-ops, and the hot paths skip their time.Now calls
// entirely.
type serveMetrics struct {
	reg        *obs.Registry
	latency    [numKinds]*obs.Histogram // lcs_serve_latency_ns{kind}
	queueWait  *obs.Histogram           // lcs_serve_queue_wait_ns
	inflight   *obs.Gauge               // lcs_serve_executors_inflight
	peak       *obs.Gauge               // lcs_serve_executors_inflight_peak
	poolSize   *obs.Gauge               // lcs_serve_executor_pool_size
	batchTasks *obs.Histogram           // lcs_serve_batch_tasks
	coalIn     *obs.Counter             // lcs_serve_coalesce_in_total
	coalOut    *obs.Counter             // lcs_serve_coalesce_out_total
	trace      *obs.TraceRing
}

func newServeMetrics(reg *obs.Registry, traceDepth, poolSize int) *serveMetrics {
	if reg == nil {
		return nil
	}
	m := &serveMetrics{reg: reg}
	names := traceNames()
	for k := Kind(0); k < numKinds; k++ {
		m.latency[k] = reg.Histogram("lcs_serve_latency_ns", "kind", names.Kinds[k])
	}
	m.queueWait = reg.Histogram("lcs_serve_queue_wait_ns")
	m.inflight = reg.Gauge("lcs_serve_executors_inflight")
	m.peak = reg.Gauge("lcs_serve_executors_inflight_peak")
	m.poolSize = reg.Gauge("lcs_serve_executor_pool_size")
	m.poolSize.Add(int64(poolSize)) // several servers on one registry sum
	m.batchTasks = reg.Histogram("lcs_serve_batch_tasks")
	m.coalIn = reg.Counter("lcs_serve_coalesce_in_total")
	m.coalOut = reg.Counter("lcs_serve_coalesce_out_total")
	m.trace = reg.Trace(traceDepth, names)
	return m
}

// checkout accounts one successful executor checkout.
func (m *serveMetrics) checkout(waitNs int64) {
	if m == nil {
		return
	}
	m.queueWait.Observe(waitNs)
	m.inflight.Add(1)
	m.peak.SetMax(m.inflight.Value())
}

// release accounts one executor release.
func (m *serveMetrics) release() {
	if m == nil {
		return
	}
	m.inflight.Add(-1)
}

// record accounts one executor execution: per-kind latency (successes
// only — error latencies would skew the quantiles) plus one trace record.
// batch is the distinct-root count after coalescing (1 for single
// queries).
func (m *serveMetrics) record(kind Kind, l lease, batch int32, waitNs, execNs int64, err error) {
	if m == nil {
		return
	}
	outcome := outcomeOK
	if err != nil {
		outcome = outcomeError
		if k := reproerr.KindOf(err); k == reproerr.KindCanceled || k == reproerr.KindDeadline {
			outcome = outcomeCanceled
		}
	} else {
		m.latency[kind].Observe(execNs)
	}
	var ep, gen uint64
	if l.ep != nil {
		ep = l.ep.seq
	}
	if l.sn != nil {
		gen = l.sn.generation
	}
	m.trace.Record(uint8(kind), outcome, ep, gen, batch, waitNs, execNs)
}

// group accounts one batched SSSP group: the pre-coalescing query count
// and the distinct roots walked after coalescing.
func (m *serveMetrics) group(in, roots int) {
	if m == nil {
		return
	}
	m.coalIn.Add(int64(in))
	m.coalOut.Add(int64(roots))
	m.batchTasks.Observe(int64(roots))
}

// RecordSchedStats folds one scheduled execution's Stats into reg's
// lcs_sched_* bridge metrics (rounds/messages counters, peak arc-load and
// queue gauges). The scheduler and CONGEST engines stay observability-free;
// callers that run them directly bridge their existing Stats through this
// entry point. A nil registry is a no-op.
func RecordSchedStats(reg *obs.Registry, st sched.Stats) {
	if reg == nil {
		return
	}
	reg.Counter("lcs_sched_rounds_total").Add(int64(st.Rounds))
	reg.Counter("lcs_sched_messages_total").Add(st.Messages)
	reg.Gauge("lcs_sched_max_arc_load").SetMax(int64(st.MaxArcLoad))
	reg.Gauge("lcs_sched_max_queue").SetMax(int64(st.MaxQueue))
}

// RecordCost folds a simulated execution's cost.Cost into reg: simulated
// rounds/messages counters plus the scheduled-phase Stats bridge. This is
// how congest-engine runs (snapshot builds, distributed constructions)
// surface in a registry without the engines importing obs.
func RecordCost(reg *obs.Registry, c cost.Cost) {
	if reg == nil {
		return
	}
	reg.Counter("lcs_sim_rounds_total").Add(int64(c.Rounds))
	reg.Counter("lcs_sim_messages_total").Add(c.Messages)
	RecordSchedStats(reg, c.SchedStats)
}

// nowIf returns the current time when metrics are enabled; the
// uninstrumented path skips the clock read entirely.
func (m *serveMetrics) nowIf() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// sinceNs returns the elapsed nanoseconds since t0 (0 when uninstrumented).
func (m *serveMetrics) sinceNs(t0 time.Time) int64 {
	if m == nil {
		return 0
	}
	return time.Since(t0).Nanoseconds()
}
