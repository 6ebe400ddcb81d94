package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear (HDR-style), preallocated, no
// configuration. Values 0..15 get exact unit buckets; above that each
// power-of-two octave is split into 2^histSubBits linear sub-buckets, so
// the relative resolution is 2^-histSubBits = 12.5% everywhere. The whole
// range of non-negative int64 fits in histBuckets buckets — nanosecond
// latencies from 1ns to ~292 years — so Observe is branch-light bit math
// plus one atomic add, with no growth, no locks, and no allocation.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	histSmall   = 2 * histSub      // exact unit buckets below this value
	// index of the largest bucket: e=63 → (63-histSubBits+1)*histSub +
	// (histSub-1); +1 for the count.
	histBuckets = (63-histSubBits+1)*histSub + histSub
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0.
func bucketIndex(v int64) int {
	if v < int64(histSmall) {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-histSubBits+1)*histSub + int((uint64(v)>>(e-histSubBits))&(histSub-1))
}

// bucketLower returns the inclusive lower bound of bucket idx — the value
// quantile readout reports, exact to within one bucket's resolution.
func bucketLower(idx int) int64 {
	if idx < histSmall {
		return int64(idx)
	}
	e := idx/histSub + histSubBits - 1
	m := idx % histSub
	return int64(1)<<e | int64(m)<<(e-histSubBits)
}

// bucketUpper returns the exclusive upper bound of bucket idx (the
// Prometheus `le` boundary is bucketUpper-1, the largest value the bucket
// holds).
func bucketUpper(idx int) int64 {
	if idx+1 >= histBuckets {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	u := bucketLower(idx + 1)
	if u <= 0 {
		// 1<<63 overflowed: idx is the top bucket any int64 can reach.
		return int64(^uint64(0) >> 1)
	}
	return u
}

// Histogram is a fixed-bucket log-spaced histogram with lock-free Observe:
// one atomic add on the value's bucket, one on the running sum, and a CAS
// loop only when a new maximum is set. The zero value is ready to use; a
// nil *Histogram ignores observations.
//
// The observation count is not stored separately — a snapshot derives it as
// the sum of the bucket counts, so concurrent snapshots can never see a
// count that disagrees with the buckets (no torn totals; the -race
// concurrency test pins this).
type Histogram struct {
	meta
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since t0 — the one-line
// latency idiom for request handlers:
//
//	defer h.ObserveSince(time.Now())
//
// A nil histogram skips the clock read entirely, keeping uninstrumented
// paths free of time syscalls.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Nanoseconds())
}

// Snapshot captures the histogram's current state. Safe under concurrent
// writers: the result is a merge of a prefix of the concurrent
// observations — bucket counts are internally consistent (Count is their
// exact sum), though Sum/Max may include an observation whose bucket add
// landed after the bucket scan (or vice versa) while writers are active.
// Quiescent snapshots are exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{}
	if h == nil {
		return s
	}
	s.Name = h.name
	s.Labels = h.labels
	s.counts = make([]int64, histBuckets)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable with
// snapshots of other histograms sharing the same bucket layout (all do).
type HistogramSnapshot struct {
	Name   string
	Labels []string
	Count  int64
	Sum    int64
	Max    int64
	counts []int64
}

// Quantile returns the value at quantile q (0 < q ≤ 1): the lower bound of
// the bucket holding the ⌈q·Count⌉-th smallest observation — exact for
// values below 16, within 12.5% above.
//
// An empty snapshot (Count == 0) has no observations to rank, so every
// quantile returns the defined sentinel 0 — never garbage from bucket math.
// 0 is also what a NaN q returns; q outside (0, 1] clamps to the nearest
// valid rank (q ≤ 0 → the minimum observation, q > 1 → the maximum's
// bucket), keeping the result a value that was actually observed.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.counts) == 0 || q != q {
		return 0
	}
	// Clamp q before the float→int conversion: ±Inf (and any q outside the
	// contract) converted to int64 is platform-defined, not merely wrong.
	var rank int64
	switch {
	case q <= 0:
		rank = 1
	case q >= 1:
		rank = s.Count
	default:
		// Nearest rank ⌈q·Count⌉. The product can land a hair above an
		// integer (0.07·100 = 7.000000000000001), which a bare ceiling
		// would push one rank up; the relative tolerance is far below any
		// fractional part a real q·Count has.
		x := q * float64(s.Count)
		rank = int64(math.Ceil(x - x*1e-12))
		if rank < 1 {
			rank = 1
		}
		if rank > s.Count {
			rank = s.Count
		}
	}
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return bucketLower(i)
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Buckets returns the non-empty buckets in ascending order as (upper bound
// inclusive, count) pairs — the sparse form exposition and JSON emit.
func (s *HistogramSnapshot) Buckets() []Bucket {
	var out []Bucket
	for i, c := range s.counts {
		if c != 0 {
			out = append(out, Bucket{Le: bucketUpper(i) - 1, Count: c})
		}
	}
	return out
}

// Bucket is one non-empty histogram bucket: Le is the largest value the
// bucket holds (inclusive), Count its (non-cumulative) observation count.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}
