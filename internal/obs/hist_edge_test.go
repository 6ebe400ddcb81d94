package obs

import (
	"math"
	"testing"
)

// TestQuantileEmptySnapshot pins the documented sentinel: a snapshot with no
// observations answers 0 for every quantile — including the summary trio the
// exposition layer reads — instead of leaking bucket math on an all-zero
// count array. Both empty-snapshot shapes are covered: one taken from a
// fresh histogram (counts allocated, all zero) and the zero-value snapshot
// (counts nil, as a nil histogram or an unmerged zero value produces).
func TestQuantileEmptySnapshot(t *testing.T) {
	fresh := (&Histogram{}).Snapshot()
	var zero HistogramSnapshot
	for name, s := range map[string]HistogramSnapshot{"fresh": fresh, "zero": zero} {
		if s.Count != 0 {
			t.Fatalf("%s: Count = %d, want 0", name, s.Count)
		}
		for _, q := range []float64{0.5, 0.99, 0.999, 1} {
			if got := s.Quantile(q); got != 0 {
				t.Errorf("%s: empty Quantile(%v) = %d, want sentinel 0", name, q, got)
			}
		}
		if got := s.Mean(); got != 0 {
			t.Errorf("%s: empty Mean() = %v, want 0", name, got)
		}
	}
}

// TestQuantileSingleObservation pins that one observation answers every
// quantile with its own bucket — p50, p99, p999 and max all agree when
// there is exactly one sample to rank.
func TestQuantileSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(7)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	for _, q := range []float64{0.001, 0.5, 0.99, 0.999, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("single-observation Quantile(%v) = %d, want 7", q, got)
		}
	}
	if s.Max != 7 {
		t.Errorf("Max = %d, want 7", s.Max)
	}
}

// TestQuantileDegenerateQ pins the out-of-contract q values: NaN returns
// the sentinel 0, q ≤ 0 clamps to the minimum observation, and q > 1
// (including +Inf, which would otherwise overflow the float→int rank
// conversion into a platform-defined value) clamps to the top rank.
func TestQuantileDegenerateQ(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %d, want sentinel 0", got)
	}
	for _, q := range []float64{0, -0.5, math.Inf(-1)} {
		if got := s.Quantile(q); got != 1 {
			t.Errorf("Quantile(%v) = %d, want minimum observation 1", q, got)
		}
	}
	for _, q := range []float64{1.5, 2, math.Inf(1)} {
		if got := s.Quantile(q); got != 10 {
			t.Errorf("Quantile(%v) = %d, want top bucket 10", q, got)
		}
	}
}

// TestQuantileNearestRank pins Quantile to the nearest-rank rule its doc
// states, the ⌈q·Count⌉-th smallest observation: where q·Count has a
// fractional part below ½ that is one rank above rounding, and where the
// product lands a hair above an integer it is that integer's rank.
func TestQuantileNearestRank(t *testing.T) {
	quantile := func(q float64, obs ...int64) int64 {
		var h Histogram
		for _, v := range obs {
			h.Observe(v)
		}
		s := h.Snapshot()
		return s.Quantile(q)
	}
	upTo := func(n int64) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(i) + 1
		}
		return vs
	}
	if got := quantile(0.21, upTo(10)...); got != 3 {
		t.Errorf("1..10: Quantile(0.21) = %d, want rank ⌈2.1⌉ = 3", got)
	}
	tail := make([]int64, 2039, 2060)
	for i := range tail {
		tail[i] = 1
	}
	for i := 0; i < 21; i++ {
		tail = append(tail, 9)
	}
	if got := quantile(0.99, tail...); got != 9 {
		t.Errorf("2039 ones then 21 nines: Quantile(0.99) = %d, want rank ⌈2039.4⌉ = 2040, a 9", got)
	}
	if got := quantile(0.07, upTo(100)...); got != 7 { // 0.07·100 = 7.000000000000001
		t.Errorf("1..100: Quantile(0.07) = %d, want rank 7", got)
	}
}
