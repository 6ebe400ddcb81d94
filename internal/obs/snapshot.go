package obs

import (
	"encoding/json"
	"io"
)

// Snapshot is a point-in-time JSON-serializable copy of a registry:
// every counter, gauge, and histogram (with precomputed quantiles), plus
// the retained query traces and the number of records the trace ring
// dropped (TraceRing.Dropped).
type Snapshot struct {
	Counters      []CounterSnapshot  `json:"counters,omitempty"`
	Gauges        []GaugeSnapshot    `json:"gauges,omitempty"`
	Histograms    []HistogramSummary `json:"histograms,omitempty"`
	Traces        []QueryTrace       `json:"traces,omitempty"`
	TracesDropped uint64             `json:"traces_dropped,omitempty"`
}

// CounterSnapshot is one counter's point-in-time value.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnapshot is one gauge's point-in-time value.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramSummary is a histogram snapshot in serializable form: totals,
// precomputed p50/p99/p999, and the sparse non-empty buckets.
type HistogramSummary struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	Mean    float64           `json:"mean"`
	P50     int64             `json:"p50"`
	P99     int64             `json:"p99"`
	P999    int64             `json:"p999"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Summary converts the snapshot to its serializable form.
func (s *HistogramSnapshot) Summary() HistogramSummary {
	return HistogramSummary{
		Name:    s.Name,
		Labels:  labelMap(s.Labels),
		Count:   s.Count,
		Sum:     s.Sum,
		Max:     s.Max,
		Mean:    s.Mean(),
		P50:     s.Quantile(0.50),
		P99:     s.Quantile(0.99),
		P999:    s.Quantile(0.999),
		Buckets: s.Buckets(),
	}
}

func labelMap(labels []string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	return m
}

// Snapshot captures every instrument and the trace ring. Safe under
// concurrent writers (each instrument snapshots atomically); a nil
// registry returns the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	for _, m := range r.instruments() {
		switch m := m.(type) {
		case *Counter:
			out.Counters = append(out.Counters, CounterSnapshot{Name: m.name, Labels: labelMap(m.labels), Value: m.Value()})
		case *Gauge:
			out.Gauges = append(out.Gauges, GaugeSnapshot{Name: m.name, Labels: labelMap(m.labels), Value: m.Value()})
		case *Histogram:
			s := m.Snapshot()
			out.Histograms = append(out.Histograms, s.Summary())
		}
	}
	ring, names := r.traceRing()
	out.Traces = ring.snapshot(names)
	out.TracesDropped = ring.Dropped()
	return out
}

// Traces decodes the registry's retained query traces, oldest first (nil
// when no trace ring is registered).
func (r *Registry) Traces() []QueryTrace {
	if r == nil {
		return nil
	}
	ring, names := r.traceRing()
	return ring.snapshot(names)
}

func (r *Registry) traceRing() (*TraceRing, TraceNames) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace, r.traceN
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
