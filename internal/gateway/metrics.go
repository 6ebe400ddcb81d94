package gateway

import (
	"repro/internal/obs"
)

// endpoint codes index the per-endpoint instrument arrays — fixed at
// construction so the hot path never does a map lookup or label formatting.
const (
	epQuery = iota
	epBatch
	epDelta
	epSwap
	numEndpoints
)

var endpointNames = [numEndpoints]string{"query", "batch", "delta", "swap"}

// gwMetrics is the gateway's instrument set, registered once on the shared
// obs.Registry at construction. All instruments are nil when the gateway is
// uninstrumented — every write below is a nil-receiver no-op, so the
// request path carries no conditionals and stays allocation-free either
// way.
type gwMetrics struct {
	requests [numEndpoints]*obs.Counter   // lcs_gateway_requests_total{endpoint}
	errors   [numEndpoints]*obs.Counter   // lcs_gateway_errors_total{endpoint}
	latency  [numEndpoints]*obs.Histogram // lcs_gateway_latency_ns{endpoint}
	shed     *obs.Counter                 // lcs_gateway_shed_total
	depth    *obs.Gauge                   // lcs_gateway_queue_depth
	depthPk  *obs.Gauge                   // lcs_gateway_queue_depth_peak

	cacheHits  *obs.Counter // lcs_gateway_sssp_cache_hits_total
	cacheBytes *obs.Gauge   // lcs_gateway_sssp_cache_bytes
}

// newGwMetrics registers the gateway instrument set on reg. A nil registry
// yields an all-nil (uninstrumented) set; the struct itself is always
// non-nil so call sites never branch.
func newGwMetrics(reg *obs.Registry) *gwMetrics {
	m := &gwMetrics{}
	for ep := 0; ep < numEndpoints; ep++ {
		m.requests[ep] = reg.Counter("lcs_gateway_requests_total", "endpoint", endpointNames[ep])
		m.errors[ep] = reg.Counter("lcs_gateway_errors_total", "endpoint", endpointNames[ep])
		m.latency[ep] = reg.Histogram("lcs_gateway_latency_ns", "endpoint", endpointNames[ep])
	}
	m.shed = reg.Counter("lcs_gateway_shed_total")
	m.depth = reg.Gauge("lcs_gateway_queue_depth")
	m.depthPk = reg.Gauge("lcs_gateway_queue_depth_peak")
	m.cacheHits = reg.Counter("lcs_gateway_sssp_cache_hits_total")
	m.cacheBytes = reg.Gauge("lcs_gateway_sssp_cache_bytes")
	return m
}

// admitted records one slot acquisition: current depth and its peak.
func (m *gwMetrics) admitted(depth int64) {
	m.depth.Set(depth)
	m.depthPk.SetMax(depth)
}

// released records one slot release.
func (m *gwMetrics) released(depth int64) {
	m.depth.Set(depth)
}
