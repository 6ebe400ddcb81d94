package repro

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Observability: the zero-allocation metrics and tracing surface of the
// serving stack.
//
// A Metrics registry collects atomic counters, gauges, log-spaced latency
// histograms, and a bounded ring of per-query trace records from every
// layer it is attached to (WithMetrics on servers, stores, and snapshot
// loads). Instrument writes are lock-free atomic arithmetic on
// preallocated state — the warm serve paths stay at their CI-enforced
// 0 allocs/op with a live registry attached. Expose a registry three ways:
//
//	reg := repro.NewMetrics()
//	srv, _ := repro.NewServerV2(snap, repro.WithMetrics(reg))
//	...
//	reg.WritePrometheus(os.Stdout)        // text exposition, no deps
//	reg.WriteJSON(os.Stdout)              // JSON snapshot incl. traces
//	http.Handle("/metrics", repro.MetricsHandler(reg))
//
// See DESIGN.md "Observability" for the metric inventory and which layer
// owns each series. Behind a Gateway, an sssp query answered from the
// gateway's cache of encoded bodies never reaches the server: the serve
// series and the trace ring count walks, and
// lcs_gateway_sssp_cache_hits_total counts the hits.

// Metrics is an instrument registry (see internal/obs). The zero value is
// not usable — construct with NewMetrics. A nil *Metrics everywhere means
// "uninstrumented" and costs one predictable branch per call site.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time JSON-serializable copy of a registry:
// counters, gauges, histograms with precomputed p50/p99/p999, and the
// retained query traces.
type MetricsSnapshot = obs.Snapshot

// QueryTrace is one decoded per-query trace record: kind, epoch and
// generation served, batch size after coalescing, queue wait and execution
// nanoseconds, and the outcome.
type QueryTrace = obs.QueryTrace

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// MetricsHandler returns an http.Handler serving reg: Prometheus text
// exposition by default, the JSON snapshot under ?format=json.
func MetricsHandler(reg *Metrics) http.Handler { return obs.Handler(reg) }

// RecordCost folds an operation's Cost into reg: simulated rounds and
// messages plus the realized scheduler stats of its scheduled phases. The
// construction engines are observability-free by design — callers bridge
// the Cost they already return:
//
//	snap, _ := repro.NewSnapshotCtx(ctx, g, w, parts, repro.WithSeed(42))
//	repro.RecordCost(reg, snap.Cost())
func RecordCost(reg *Metrics, c Cost) { serve.RecordCost(reg, c) }
