package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/testx"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5) // below current: no-op
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after SetMax = %d, want 9", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "kind", "sssp")
	b := r.Counter("x_total", "kind", "sssp")
	if a != b {
		t.Fatal("re-registering the same (name, labels) must return the same counter")
	}
	if c := r.Counter("x_total", "kind", "mst"); c == a {
		t.Fatal("different labels must yield a different counter")
	}
	h1 := r.Histogram("h")
	h2 := r.Histogram("h")
	if h1 != h2 {
		t.Fatal("re-registering the same histogram must return the same instance")
	}
	tr := r.Trace(8, TraceNames{Kinds: []string{"a"}})
	if tr2 := r.Trace(999, TraceNames{}); tr2 != tr {
		t.Fatal("Trace is first-call-wins")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := r.Trace(0, TraceNames{})
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	tr.Record(0, 0, 0, 0, 0, 0, 0)
	if c.Value() != 0 || g.Value() != 0 || tr.Len() != 0 || tr.Recorded() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Traces) != 0 {
		t.Fatal("nil registry snapshot must be zero")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketBoundsInvariant(t *testing.T) {
	// Every value must land in a bucket whose [lower, upper) range holds it,
	// with relative width ≤ 12.5% above the exact-unit region.
	vals := []int64{0, 1, 15, 16, 17, 100, 1023, 1024, 4097, 1e6, 1e9, 1e12, math.MaxInt64}
	for _, v := range vals {
		idx := bucketIndex(v)
		lo, hi := bucketLower(idx), bucketUpper(idx)
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d landed in bucket %d [%d, %d)", v, idx, lo, hi)
		}
		if v >= int64(histSmall) && float64(hi-lo)/float64(lo) > 0.125+1e-9 {
			t.Fatalf("bucket %d [%d, %d) wider than 12.5%%", idx, lo, hi)
		}
	}
	// Adjacency over the reachable range (buckets past bucketIndex(MaxInt64)
	// would need values above int64).
	for idx := 1; idx <= bucketIndex(math.MaxInt64); idx++ {
		if bucketUpper(idx-1) != bucketLower(idx) {
			t.Fatalf("gap between buckets %d and %d", idx-1, idx)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := (&Registry{byKey: map[string]any{}}).Histogram("h")
	// Small values get exact unit buckets: quantiles are exact.
	for v := int64(0); v < 10; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 45 || s.Max != 9 {
		t.Fatalf("snapshot totals = (%d, %d, %d), want (10, 45, 9)", s.Count, s.Sum, s.Max)
	}
	if p50 := s.Quantile(0.5); p50 != 4 {
		t.Fatalf("p50 = %d, want 4", p50)
	}
	if p100 := s.Quantile(1); p100 != 9 {
		t.Fatalf("p100 = %d, want 9", p100)
	}
	if mean := s.Mean(); mean != 4.5 {
		t.Fatalf("mean = %f, want 4.5", mean)
	}
	// Large values: quantile within one bucket's 12.5% resolution.
	h2 := (&Registry{byKey: map[string]any{}}).Histogram("h2")
	const v = int64(1_000_000)
	for i := 0; i < 100; i++ {
		h2.Observe(v)
	}
	s2 := h2.Snapshot()
	q := s2.Quantile(0.99)
	if q > v || float64(v-q)/float64(v) > 0.125 {
		t.Fatalf("p99 = %d, want within 12.5%% below %d", q, v)
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while a
// reader snapshots continuously: snapshot counts must never tear (Count is
// derived from the buckets), never decrease, and the final quiescent
// snapshot must be exact. Run under -race.
func TestHistogramConcurrent(t *testing.T) {
	defer testx.LeakCheck(t.Errorf)()
	const writers, perWriter = 8, 5000
	h := (&Registry{byKey: map[string]any{}}).Histogram("h")
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		var last int64
		for {
			s := h.Snapshot()
			var fromBuckets int64
			for _, b := range s.Buckets() {
				fromBuckets += b.Count
			}
			if s.Count != fromBuckets {
				readerDone <- fmt.Errorf("torn snapshot: Count %d != bucket sum %d", s.Count, fromBuckets)
				return
			}
			if s.Count < last {
				readerDone <- fmt.Errorf("count went backwards: %d -> %d", last, s.Count)
				return
			}
			last = s.Count
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	var wantSum int64
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local int64
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				h.Observe(v)
				local += v
			}
			mu.Lock()
			wantSum += local
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perWriter)
	}
	if s.Sum != wantSum {
		t.Fatalf("final sum = %d, want %d", s.Sum, wantSum)
	}
	if want := int64(writers*perWriter - 1); s.Max != want {
		t.Fatalf("final max = %d, want %d", s.Max, want)
	}
}

func TestTraceRingDecodeAndWraparound(t *testing.T) {
	r := New()
	names := TraceNames{Kinds: []string{"sssp", "mst"}, Outcomes: []string{"ok", "error"}}
	ring := r.Trace(8, names)
	for i := 0; i < 20; i++ {
		ring.Record(uint8(i%2), 0, uint64(100+i), uint64(i), int32(i), int64(i*10), int64(i*100))
	}
	if ring.Len() != 8 || ring.Recorded() != 20 {
		t.Fatalf("Len = %d, Recorded = %d; want 8, 20", ring.Len(), ring.Recorded())
	}
	traces := r.Traces()
	if len(traces) != 8 {
		t.Fatalf("decoded %d records, want 8", len(traces))
	}
	for j, qt := range traces {
		i := 12 + j // the last 8 of 20, oldest first
		if qt.Seq != uint64(i) || qt.Epoch != uint64(100+i) || qt.Generation != uint64(i) ||
			qt.Batch != int32(i) || qt.QueueWaitNs != int64(i*10) || qt.ExecNs != int64(i*100) {
			t.Fatalf("record %d decoded wrong: %+v", i, qt)
		}
		wantKind := names.Kinds[i%2]
		if qt.Kind != wantKind || qt.Outcome != "ok" {
			t.Fatalf("record %d names = (%s, %s)", i, qt.Kind, qt.Outcome)
		}
	}
	// Out-of-table codes render as code(N), not a crash.
	ring.Record(99, 99, 0, 0, 1, 0, 0)
	traces = r.Traces()
	last := traces[len(traces)-1]
	if last.Kind != "code(99)" || last.Outcome != "code(99)" {
		t.Fatalf("out-of-table codes = (%s, %s)", last.Kind, last.Outcome)
	}
}

// TestTraceRingConcurrent pins the seqlock: records decoded during a write
// storm are never torn — the fields of every reported record are mutually
// consistent — and sequence numbers come out strictly increasing. Run
// under -race.
func TestTraceRingConcurrent(t *testing.T) {
	defer testx.LeakCheck(t.Errorf)()
	ring := NewTraceRing(64)
	const writers, perWriter = 8, 3000
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			for _, qt := range ring.snapshot(TraceNames{}) {
				// Writers encode generation = epoch+1, exec = epoch+2: any
				// mix of two records breaks the relation.
				if qt.Generation != qt.Epoch+1 || qt.ExecNs != int64(qt.Epoch+2) {
					readerDone <- fmt.Errorf("torn record: %+v", qt)
					return
				}
			}
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w*perWriter + i)
				ring.Record(1, 1, v, v+1, 1, 0, int64(v+2))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	traces := ring.snapshot(TraceNames{})
	if len(traces) == 0 {
		t.Fatal("quiescent ring decoded no records")
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq <= traces[i-1].Seq {
			t.Fatalf("sequence not increasing: %d after %d", traces[i].Seq, traces[i-1].Seq)
		}
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("test_requests_total", "kind", "sssp").Add(3)
	r.Counter("test_requests_total", "kind", "mst").Inc()
	r.Gauge("test_inflight").Set(2)
	h := r.Histogram("test_latency_ns")
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE test_inflight gauge
test_inflight 2
# TYPE test_latency_ns histogram
test_latency_ns_bucket{le="3"} 2
test_latency_ns_bucket{le="103"} 3
test_latency_ns_bucket{le="+Inf"} 3
test_latency_ns_sum 106
test_latency_ns_count 3
# TYPE test_requests_total counter
test_requests_total{kind="mst"} 1
test_requests_total{kind="sssp"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusExpositionValid parses every line of a busy registry's
// output against the text exposition grammar: a # TYPE line or a
// name{labels} value sample, with cumulative bucket counts.
func TestPrometheusExpositionValid(t *testing.T) {
	r := New()
	for _, kind := range []string{"sssp", "mst", "mincut"} {
		r.Counter("lcs_serve_queries_total", "kind", kind).Add(int64(len(kind)))
		h := r.Histogram("lcs_serve_latency_ns", "kind", kind)
		for i := 0; i < 50; i++ {
			h.Observe(int64(i * i * 1000))
		}
	}
	r.Gauge("lcs_store_epoch").Set(7)
	r.Counter("escaped", "v", "a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	typeLine := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9]+$`)
	typed := map[string]bool{}
	var lastBucketName string
	var lastCum int64
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if !typeLine.MatchString(line) {
				t.Fatalf("bad TYPE line: %q", line)
			}
			name := strings.Fields(line)[2]
			if typed[name] {
				t.Fatalf("duplicate TYPE line for %s", name)
			}
			typed[name] = true
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("bad sample line: %q", line)
		}
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name := line[:i]
			if strings.HasSuffix(name, "_bucket") && strings.Contains(line, `le="`) && !strings.Contains(line, `le="+Inf"`) {
				var v int64
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v)
				key := line[:strings.Index(line, `le="`)]
				if key == lastBucketName && v < lastCum {
					t.Fatalf("bucket counts not cumulative at %q", line)
				}
				lastBucketName, lastCum = key, v
			}
		}
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("c_total").Add(5)
	r.Trace(4, TraceNames{Kinds: []string{"sssp"}}).Record(0, 0, 1, 0, 1, 10, 20)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	res := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	Handler(r).ServeHTTP(res, req)
	if ct := res.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(res.Body.String(), "c_total 5") {
		t.Fatalf("exposition missing counter: %s", res.Body.String())
	}

	res = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	Handler(r).ServeHTTP(res, req)
	if ct := res.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(res.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 5 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if len(snap.Traces) != 1 || snap.Traces[0].Kind != "sssp" || snap.Traces[0].ExecNs != 20 {
		t.Fatalf("snapshot traces = %+v", snap.Traces)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a_total", "k", "v").Add(2)
	r.Gauge("b").Set(-4)
	r.Histogram("c_ns").Observe(1234)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Labels["k"] != "v" {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Gauges[0].Value != -4 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	h := snap.Histograms[0]
	if h.Count != 1 || h.P50 == 0 || h.Max != 1234 {
		t.Fatalf("histogram = %+v", h)
	}
}

// TestTraceRingDropsContendedSlot replays, one step at a time, the two
// interleavings in which two writers share a slot (records i and i+size):
// a newer writer reaching a slot whose older writer is still mid-write, and
// an older writer reaching its slot after a newer record was published
// there. In both, Record must drop its own record, count the drop, and
// leave the slot's payload alone, and snapshot must report only whole
// records.
func TestTraceRingDropsContendedSlot(t *testing.T) {
	const size = 4
	// Record v carries epoch v, generation v+1 and exec v+2, as in
	// TestTraceRingConcurrent; every record below is written with v = its
	// sequence number.
	record := func(ring *TraceRing, v uint64) {
		ring.write(v, 1, 1, v, v+1, 1, 0, int64(v+2))
	}
	assertWhole := func(t *testing.T, ring *TraceRing) []QueryTrace {
		t.Helper()
		traces := ring.snapshot(TraceNames{})
		for _, qt := range traces {
			if qt.Epoch != qt.Seq || qt.Generation != qt.Seq+1 || qt.ExecNs != int64(qt.Seq+2) {
				t.Fatalf("mixed record: %+v", qt)
			}
		}
		return traces
	}

	t.Run("mid-write", func(t *testing.T) {
		ring := NewTraceRing(size)
		ring.cursor.Store(2*size + 1)
		for v := uint64(size + 1); v < 2*size; v++ {
			record(ring, v)
		}
		// Record size holds slot 0: its sequence is odd, and it has stored
		// its epoch but nothing else yet.
		ring.slots[0].Store((size+1)<<1 | 1)
		ring.slots[2].Store(size)
		record(ring, 2*size) // slot 0 again
		if got := ring.Dropped(); got != 1 {
			t.Fatalf("Dropped = %d, want 1", got)
		}
		if ring.slots[0].Load() != (size+1)<<1|1 || ring.slots[2].Load() != size || ring.slots[3].Load() != 0 {
			t.Fatal("the dropped record wrote into a slot held mid-write")
		}
		assertWhole(t, ring)
		// Record size finishes and publishes; it is older than the window
		// [size+1, 2·size], so it is not reported, and nothing is mixed.
		ring.slots[3].Store(size + 1)
		ring.slots[5].Store(size + 2)
		ring.slots[0].Store((size + 1) << 1)
		if traces := assertWhole(t, ring); len(traces) != size-1 {
			t.Fatalf("decoded %d records, want %d: %+v", len(traces), size-1, traces)
		}
	})

	t.Run("newer-record", func(t *testing.T) {
		reg := New()
		ring := reg.Trace(size, TraceNames{})
		// Record 0 takes its sequence number, then stalls while records
		// 1..size are written; record size lands in slot 0.
		ring.cursor.Store(size + 1)
		for v := uint64(1); v <= size; v++ {
			record(ring, v)
		}
		record(ring, 0) // the stalled writer reaches slot 0 last
		if got := ring.Dropped(); got != 1 {
			t.Fatalf("Dropped = %d, want 1", got)
		}
		traces := assertWhole(t, ring)
		if len(traces) != size || traces[size-1].Seq != size {
			t.Fatalf("decoded %+v, want records 1..%d with the newest kept", traces, size)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"traces_dropped": 1`) {
			t.Fatalf("JSON snapshot does not report the drop:\n%s", buf.String())
		}
	})
}
