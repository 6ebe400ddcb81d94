package serve_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

func counterValue(t *testing.T, snap obs.Snapshot, name string, labels map[string]string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if c.Labels[k] != v {
				match = false
			}
		}
		if match {
			return c.Value
		}
	}
	t.Fatalf("counter %s%v not registered", name, labels)
	return 0
}

func gaugeValue(t *testing.T, snap obs.Snapshot, name string) int64 {
	t.Helper()
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %s not registered", name)
	return 0
}

func histSummary(t *testing.T, snap obs.Snapshot, name string, labels map[string]string) obs.HistogramSummary {
	t.Helper()
	for _, h := range snap.Histograms {
		if h.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if h.Labels[k] != v {
				match = false
			}
		}
		if match {
			return h
		}
	}
	t.Fatalf("histogram %s%v not registered", name, labels)
	return obs.HistogramSummary{}
}

// TestServeMetrics pins the serving instrumentation against the server's
// own always-on Stats: per-kind latency counts, coalescing totals, the
// batch-size histogram, and the query-trace ring must all agree with the
// work actually delivered.
func TestServeMetrics(t *testing.T) {
	fx := makeFixture(t, 200, 11)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2, Metrics: reg})

	const singles = 5
	for i := 0; i < singles; i++ {
		if _, err := srv.ServeSSSP(graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One batch with a duplicated root: 4 in, 3 after coalescing.
	batch := []serve.Query{
		serve.SSSPQuery{Source: 1}, serve.SSSPQuery{Source: 2},
		serve.SSSPQuery{Source: 1}, serve.SSSPQuery{Source: 3},
	}
	if _, err := srv.ServeBatch(batch); err != nil {
		t.Fatal(err)
	}
	// One non-SSSP query, for the per-kind split.
	if _, err := srv.Serve(serve.MSTQuery{}); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.CoalesceIn != 4 || st.CoalesceOut != 3 {
		t.Fatalf("Stats coalesce = (%d, %d), want (4, 3)", st.CoalesceIn, st.CoalesceOut)
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "lcs_serve_coalesce_in_total", nil); got != st.CoalesceIn {
		t.Fatalf("coalesce_in counter = %d, Stats say %d", got, st.CoalesceIn)
	}
	if got := counterValue(t, snap, "lcs_serve_coalesce_out_total", nil); got != st.CoalesceOut {
		t.Fatalf("coalesce_out counter = %d, Stats say %d", got, st.CoalesceOut)
	}
	// The batch's one group observes its distinct-root count.
	if bt := histSummary(t, snap, "lcs_serve_batch_tasks", nil); bt.Count != 1 || bt.Sum != 3 {
		t.Fatalf("batch tasks histogram count=%d sum=%d, want 1 and 3", bt.Count, bt.Sum)
	}
	// Latency: singles + one batched group execution, all successful.
	lat := histSummary(t, snap, "lcs_serve_latency_ns", map[string]string{"kind": "sssp"})
	if lat.Count != singles+1 {
		t.Fatalf("sssp latency count = %d, want %d", lat.Count, singles+1)
	}
	if lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Fatalf("latency quantiles implausible: p50=%d p99=%d", lat.P50, lat.P99)
	}
	if got := histSummary(t, snap, "lcs_serve_latency_ns", map[string]string{"kind": "mst"}); got.Count != 1 {
		t.Fatalf("mst latency count = %d, want 1", got.Count)
	}
	if wait := histSummary(t, snap, "lcs_serve_queue_wait_ns", nil); wait.Count != lat.Count+1 {
		// Every recorded execution observes its checkout wait.
		t.Fatalf("queue wait count = %d, want %d", wait.Count, lat.Count+1)
	}
	if got := gaugeValue(t, snap, "lcs_serve_executors_inflight"); got != 0 {
		t.Fatalf("inflight = %d after quiescence, want 0", got)
	}
	if got := gaugeValue(t, snap, "lcs_serve_executors_inflight_peak"); got < 1 {
		t.Fatalf("inflight peak = %d, want >= 1", got)
	}
	if got := gaugeValue(t, snap, "lcs_serve_executor_pool_size"); got != 2 {
		t.Fatalf("pool size = %d, want 2", got)
	}

	// Traces: one record per execution (5 singles + 1 group + 1 MST), with
	// the batch record carrying the post-coalescing task count.
	traces := snap.Traces
	if len(traces) != singles+2 {
		t.Fatalf("trace count = %d, want %d", len(traces), singles+2)
	}
	sawBatch := false
	for _, qt := range traces {
		if qt.Outcome != "ok" {
			t.Fatalf("trace outcome = %q, want ok: %+v", qt.Outcome, qt)
		}
		if qt.Batch == 3 && qt.Kind == "sssp" {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatal("no trace record with batch=3 for the coalesced group")
	}
}

// TestServeMetricsFailedBatchCountsNothing pins the counting contract: a
// batch that fails delivers nothing, so neither Stats nor the coalesce
// counters move, but the trace ring still records the failed execution.
func TestServeMetricsFailedBatchCountsNothing(t *testing.T) {
	fx := makeFixture(t, 120, 12)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Metrics: reg})
	bad := []serve.Query{
		serve.SSSPQuery{Source: 0},
		serve.SSSPQuery{Source: graph.NodeID(fx.g.NumNodes() + 5)},
	}
	if _, err := srv.ServeBatch(bad); err == nil {
		t.Fatal("batch with an out-of-range source must fail")
	}
	st := srv.Stats()
	if st.CoalesceIn != 0 || st.CoalesceOut != 0 {
		t.Fatalf("failed batch moved Stats coalesce: %+v", st)
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "lcs_serve_coalesce_in_total", nil); got != 0 {
		t.Fatalf("failed batch moved coalesce_in to %d", got)
	}
	lat := histSummary(t, snap, "lcs_serve_latency_ns", map[string]string{"kind": "sssp"})
	if lat.Count != 0 {
		t.Fatalf("failed batch observed latency: count=%d", lat.Count)
	}
	traces := snap.Traces
	if len(traces) != 1 || traces[0].Outcome != "error" {
		t.Fatalf("failed batch traces = %+v, want one error record", traces)
	}
}

// TestStoreMetrics drives a swap, a stale-file rejection, and lease
// pin/unpin through an instrumented store.
func TestStoreMetrics(t *testing.T) {
	fx := makeFixture(t, 200, 13)
	reg := obs.New()
	store := serve.NewStoreWith(fx.snap, serve.StoreOptions{Metrics: reg})
	srv := serve.NewStoreServer(store, serve.ServerOptions{Metrics: reg})

	// Persist generation 0 now; after the swap below it is stale.
	dir := t.TempDir()
	genZero := filepath.Join(dir, "gen0.snap")
	if err := serve.WriteSnapshotFile(genZero, fx.snap); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.ServeSSSP(0); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := gaugeValue(t, snap, "lcs_store_epoch"); got != 1 {
		t.Fatalf("epoch gauge = %d, want 1", got)
	}
	if got := gaugeValue(t, snap, "lcs_store_lease_pins"); got != 0 {
		t.Fatalf("lease pins = %d after quiescence, want 0", got)
	}

	// Build generation 1 by deleting one (non-bridge) inserted edge round
	// trip: insert a fresh edge, which bumps the generation.
	var u, v graph.NodeID
	found := false
	for u = 0; u < graph.NodeID(fx.g.NumNodes()) && !found; u++ {
		for v = u + 2; v < graph.NodeID(fx.g.NumNodes()); v++ {
			if !fx.g.HasEdge(u, v) {
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no missing edge to insert")
	}
	next, err := serve.ApplyDelta(context.Background(), fx.snap, graph.Delta{
		Insert: []graph.DeltaEdge{{U: u, V: v, W: 0.5}},
	}, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.SwapCtx(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := counterValue(t, snap, "lcs_store_swaps_total", nil); got != 1 {
		t.Fatalf("swaps = %d, want 1", got)
	}
	if got := gaugeValue(t, snap, "lcs_store_epoch"); got != 2 {
		t.Fatalf("epoch gauge = %d after swap, want 2", got)
	}
	if got := gaugeValue(t, snap, "lcs_store_generation"); got != 1 {
		t.Fatalf("generation gauge = %d after swap, want 1", got)
	}
	if got := histSummary(t, snap, "lcs_store_swap_ns", nil); got.Count != 1 {
		t.Fatalf("swap_ns count = %d, want 1", got.Count)
	}
	if got := histSummary(t, snap, "lcs_store_drain_wait_ns", nil); got.Count != 1 {
		t.Fatalf("drain_wait_ns count = %d, want 1 (SwapCtx drains)", got.Count)
	}

	// The generation-0 file is now stale: rejection must count.
	if _, _, err := store.SwapFromFile(genZero, serve.LoadOptions{}); err == nil {
		t.Fatal("stale swap must fail")
	}
	snap = reg.Snapshot()
	if got := counterValue(t, snap, "lcs_store_stale_rejections_total", nil); got != 1 {
		t.Fatalf("stale rejections = %d, want 1", got)
	}
	if got := counterValue(t, snap, "lcs_store_swaps_total", nil); got != 1 {
		t.Fatalf("stale rejection must not count as a swap: %d", got)
	}

	// Queries against the new epoch attribute their traces to it.
	if _, err := srv.ServeSSSP(1); err != nil {
		t.Fatal(err)
	}
	traces := reg.Snapshot().Traces
	last := traces[len(traces)-1]
	if last.Epoch != 2 || last.Generation != 1 {
		t.Fatalf("post-swap trace epoch/generation = %d/%d, want 2/1", last.Epoch, last.Generation)
	}
}

// TestLoadMetrics pins the snapshot-load instrumentation on both the mmap
// and heap paths.
func TestLoadMetrics(t *testing.T) {
	fx := makeFixture(t, 150, 14)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := serve.WriteSnapshotFile(path, fx.snap); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	sn, err := serve.LoadSnapshot(path, serve.LoadOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "lcs_snapshot_load_total", map[string]string{"path": "mmap"}); got != 1 {
		t.Fatalf("mmap loads = %d, want 1", got)
	}
	if got := counterValue(t, snap, "lcs_snapshot_load_bytes_total", nil); got != fi.Size() {
		t.Fatalf("load bytes = %d, want %d", got, fi.Size())
	}
	if got := histSummary(t, snap, "lcs_snapshot_verify_ns", nil); got.Count != 1 {
		t.Fatalf("verify_ns count = %d, want 1", got.Count)
	}

	sn2, err := serve.LoadSnapshot(path, serve.LoadOptions{NoMmap: true, SkipVerify: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()
	snap = reg.Snapshot()
	if got := counterValue(t, snap, "lcs_snapshot_load_total", map[string]string{"path": "heap"}); got != 1 {
		t.Fatalf("heap loads = %d, want 1", got)
	}
	if got := histSummary(t, snap, "lcs_snapshot_verify_ns", nil); got.Count != 1 {
		t.Fatalf("SkipVerify load must not observe verify time: count=%d", got.Count)
	}
}

// TestUninstrumentedServerUnchanged pins the nil-registry path: a server
// without metrics answers identically and never touches obs state.
func TestUninstrumentedServerUnchanged(t *testing.T) {
	fx := makeFixture(t, 150, 15)
	plain := serve.NewServer(fx.snap, serve.ServerOptions{})
	inst := serve.NewServer(fx.snap, serve.ServerOptions{Metrics: obs.New()})
	a, err := plain.ServeSSSP(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.ServeSSSP(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Dist) != len(b.Dist) {
		t.Fatalf("answer sizes differ: %d vs %d", len(a.Dist), len(b.Dist))
	}
	for i := range a.Dist {
		if a.Dist[i] != b.Dist[i] {
			t.Fatalf("distance %d differs: %f vs %f", i, a.Dist[i], b.Dist[i])
		}
	}
}
