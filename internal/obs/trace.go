package obs

import "sync/atomic"

// DefaultTraceDepth is the trace ring capacity when Registry.Trace (or
// NewTraceRing) is given size 0.
const DefaultTraceDepth = 1024

// traceWords is the per-slot word count: one sequence word plus the packed
// payload.
const traceWords = 6

// TraceNames maps the trace's compact codes to display names for snapshots
// (codes outside a table render as their number). The recorder itself
// stores only codes, so the ring stays domain-agnostic — the serving layer
// supplies its kind/outcome vocabularies at registration.
type TraceNames struct {
	Kinds    []string
	Outcomes []string
}

func (n TraceNames) name(table []string, code uint8) string {
	if int(code) < len(table) {
		return table[code]
	}
	return ""
}

// TraceRing is a bounded lock-free ring of per-query trace records. Record
// takes a sequence number with one atomic fetch-add and writes the record
// as a fixed number of atomic word stores guarded by a per-slot sequence
// word (seqlock), so writers never block, never allocate, and never tear a
// record that a concurrent Snapshot reports: a reader that observes a
// mid-write or recycled slot skips it. Records i and i+size share a slot;
// a writer claims it with one CAS, and only from an older published record,
// so at most one writer holds a slot at a time. A writer that finds its
// slot mid-write or already holding a newer record drops its own record
// and counts it in Dropped. A nil *TraceRing ignores records.
type TraceRing struct {
	size    int
	cursor  atomic.Uint64
	dropped atomic.Uint64
	slots   []atomic.Uint64 // size × traceWords
}

// NewTraceRing creates a ring holding the last size records (0 selects
// DefaultTraceDepth).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		size = DefaultTraceDepth
	}
	return &TraceRing{size: size, slots: make([]atomic.Uint64, size*traceWords)}
}

// Record appends one query record. All arguments are plain values; the
// call is a handful of atomic operations — no locks, no allocation.
func (r *TraceRing) Record(kind, outcome uint8, epoch, generation uint64, batch int32, queueWaitNs, execNs int64) {
	if r == nil {
		return
	}
	r.write(r.cursor.Add(1)-1, kind, outcome, epoch, generation, batch, queueWaitNs, execNs)
}

// write stores record i, whose sequence number the caller has taken, into
// its slot, or drops it.
func (r *TraceRing) write(i uint64, kind, outcome uint8, epoch, generation uint64, batch int32, queueWaitNs, execNs int64) {
	base := int(i%uint64(r.size)) * traceWords
	seq := &r.slots[base]
	stable := (i + 1) << 1
	// Claim the slot only from an older published record (an even sequence
	// below ours). An odd sequence is another writer mid-write; a larger
	// even one is a newer record that must not be overwritten. Either way,
	// or if the CAS loses a race, drop this record: a second writer in the
	// slot could publish it over the other's half-written payload.
	if cur := seq.Load(); cur&1 != 0 || cur >= stable || !seq.CompareAndSwap(cur, stable|1) {
		r.dropped.Add(1)
		return
	}
	r.slots[base+1].Store(uint64(kind)<<40 | uint64(outcome)<<32 | uint64(uint32(batch)))
	r.slots[base+2].Store(epoch)
	r.slots[base+3].Store(generation)
	r.slots[base+4].Store(uint64(queueWaitNs))
	r.slots[base+5].Store(uint64(execNs))
	seq.Store(stable)
}

// Len returns the number of records currently retained (≤ capacity).
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	n := r.cursor.Load()
	if n > uint64(r.size) {
		return r.size
	}
	return int(n)
}

// Recorded returns the total number of records ever offered (the global
// sequence counter), dropped ones included.
func (r *TraceRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Dropped returns the number of records Record discarded because their
// slot was mid-write or already held a newer record.
func (r *TraceRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// QueryTrace is one decoded trace record.
type QueryTrace struct {
	// Seq is the record's global sequence number (0-based, monotonic).
	Seq uint64 `json:"seq"`
	// Kind and Outcome are the display names resolved through the ring's
	// TraceNames (or decimal codes when out of table range).
	Kind    string `json:"kind"`
	Outcome string `json:"outcome"`
	// Epoch is the store epoch the query was pinned to (0 for a
	// fixed-snapshot server); Generation the snapshot's delta-chain
	// position.
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	// Batch is the task count of the query's batched execution after
	// duplicate-root coalescing (1 for single queries).
	Batch int32 `json:"batch"`
	// QueueWaitNs is the executor-checkout wait; ExecNs the execution time
	// holding the executor.
	QueueWaitNs int64 `json:"queue_wait_ns"`
	ExecNs      int64 `json:"exec_ns"`
}

// snapshot decodes the retained records oldest-first, skipping any slot a
// concurrent writer holds mid-write (or recycled during the read).
func (r *TraceRing) snapshot(names TraceNames) []QueryTrace {
	if r == nil {
		return nil
	}
	end := r.cursor.Load()
	start := uint64(0)
	if end > uint64(r.size) {
		start = end - uint64(r.size)
	}
	out := make([]QueryTrace, 0, end-start)
	for i := start; i < end; i++ {
		base := int(i%uint64(r.size)) * traceWords
		seq := &r.slots[base]
		s1 := seq.Load()
		if s1 != (i+1)<<1 { // mid-write, or recycled by a later record
			continue
		}
		w1 := r.slots[base+1].Load()
		qt := QueryTrace{
			Seq:         i,
			Epoch:       r.slots[base+2].Load(),
			Generation:  r.slots[base+3].Load(),
			Batch:       int32(uint32(w1)),
			QueueWaitNs: int64(r.slots[base+4].Load()),
			ExecNs:      int64(r.slots[base+5].Load()),
		}
		if seq.Load() != s1 { // recycled while decoding
			continue
		}
		kind, outcome := uint8(w1>>40), uint8(w1>>32)
		qt.Kind = nameOrCode(names.name(names.Kinds, kind), kind)
		qt.Outcome = nameOrCode(names.name(names.Outcomes, outcome), outcome)
		out = append(out, qt)
	}
	return out
}

func nameOrCode(name string, code uint8) string {
	if name != "" {
		return name
	}
	return "code(" + itoa(int64(code)) + ")"
}

// itoa is a tiny integer formatter so the decode path needs no fmt.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
