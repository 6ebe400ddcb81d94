package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// envelope mirrors expt.WriteJSON's output shape — the machine-readable
// contract -json promises.
type envelope struct {
	Run struct {
		Seed     int64  `json:"seed"`
		Canceled bool   `json:"canceled"`
		Error    string `json:"error"`
		Cost     *struct {
			Wall int64 `json:"Wall"`
		} `json:"cost"`
	} `json:"run"`
	Tables []struct {
		Title   string         `json:"title"`
		Columns []string       `json:"columns"`
		Rows    [][]string     `json:"rows"`
		Notes   []string       `json:"notes"`
		Meta    map[string]any `json:"meta"`
	} `json:"tables"`
}

func runJSON(t *testing.T, args []string) envelope {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	var env envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	return env
}

func TestJSONEnvelope(t *testing.T) {
	env := runJSON(t, []string{
		"-quick", "-json", "-seed", "5",
		"-sizes", "500", "-diameters", "4", "quality",
	})
	if env.Run.Seed != 5 {
		t.Fatalf("run info: %+v", env.Run)
	}
	if len(env.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(env.Tables))
	}
	tbl := env.Tables[0]
	if !strings.Contains(tbl.Title, "E1") || len(tbl.Rows) == 0 {
		t.Fatalf("unexpected table: %q with %d rows", tbl.Title, len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row width %d vs %d columns", len(row), len(tbl.Columns))
		}
	}
}

// TestServeSweepJSON drives the -serve sweep end to end at tiny scale and
// checks it emits the same envelope.
func TestServeSweepJSON(t *testing.T) {
	env := runJSON(t, []string{
		"-quick", "-json", "-serve", "-dist-sizes", "300",
		"-serve-queries", "8", "-serve-executors", "1,2", "-serve-batches", "1,4",
	})
	if len(env.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(env.Tables))
	}
	tbl := env.Tables[0]
	if !strings.Contains(tbl.Title, "E14") {
		t.Fatalf("unexpected table: %q", tbl.Title)
	}
	// 2 executor settings × 2 batch sizes, all on the library backend.
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 sweep rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "library" {
			t.Fatalf("unexpected backend %v in row %v", row[3], row)
		}
	}
	if _, ok := tbl.Meta["build_ms"]; !ok {
		t.Fatalf("missing build_ms meta: %v", tbl.Meta)
	}
}

// TestBenchOut drives a -serve sweep with -bench-out twice and checks the
// file accumulates a trajectory (one tagged entry per run, same envelope
// shape -json prints per entry), while stdout keeps its text form.
func TestBenchOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	args := []string{
		"-quick", "-serve", "-dist-sizes", "300",
		"-serve-queries", "8", "-serve-executors", "1", "-serve-batches", "4",
		"-bench-out", path,
	}
	var out bytes.Buffer
	if err := run(append(args, "-bench-tag", "run-a"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E14") {
		t.Fatalf("stdout lost its text table:\n%s", out.String())
	}
	if err := run(append(args, "-bench-tag", "run-b"), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Trajectory []struct {
			Seq        int    `json:"seq"`
			RecordedAt string `json:"recorded_at"`
			Tag        string `json:"tag"`
			envelope
		} `json:"trajectory"`
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatalf("-bench-out file does not parse: %v", err)
	}
	if len(traj.Trajectory) != 2 {
		t.Fatalf("want 2 trajectory entries after 2 runs, got %d", len(traj.Trajectory))
	}
	for i, entry := range traj.Trajectory {
		if entry.Seq != i {
			t.Fatalf("entry %d has seq %d", i, entry.Seq)
		}
		if entry.RecordedAt == "" {
			t.Fatalf("entry %d missing recorded_at", i)
		}
		if len(entry.Tables) != 1 || !strings.Contains(entry.Tables[0].Title, "E14") {
			t.Fatalf("unexpected entry %d tables: %+v", i, entry.Tables)
		}
		if entry.Run.Cost == nil || entry.Run.Cost.Wall <= 0 {
			t.Fatalf("missing entry %d envelope cost: %+v", i, entry.Run)
		}
	}
	if traj.Trajectory[0].Tag != "run-a" || traj.Trajectory[1].Tag != "run-b" {
		t.Fatalf("tags %q, %q; want run-a, run-b",
			traj.Trajectory[0].Tag, traj.Trajectory[1].Tag)
	}
}

func TestDeltaSweepJSON(t *testing.T) {
	env := runJSON(t, []string{
		"-quick", "-json", "-dist-sizes", "300", "-delta", "1,8",
	})
	if len(env.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(env.Tables))
	}
	tbl := env.Tables[0]
	if !strings.Contains(tbl.Title, "E15") {
		t.Fatalf("unexpected table: %q", tbl.Title)
	}
	if len(tbl.Rows) != 2 { // one row per delta size
		t.Fatalf("want 2 sweep rows, got %d", len(tbl.Rows))
	}
	if _, ok := tbl.Meta["build_ms"]; !ok {
		t.Fatalf("missing build_ms meta: %v", tbl.Meta)
	}
}

func TestDeltaFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-delta", "x", "dynamic"}, &out); err == nil {
		t.Fatal("bad -delta accepted")
	}
}

func TestTextAndCSVOutput(t *testing.T) {
	var text bytes.Buffer
	if err := run([]string{"-quick", "-sizes", "500", "-diameters", "4", "quality"}, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "## E1") {
		t.Fatalf("aligned-text output missing title:\n%s", text.String())
	}
	var csv bytes.Buffer
	if err := run([]string{"-quick", "-csv", "-sizes", "500", "-diameters", "4", "quality"}, &csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], ",") {
		t.Fatalf("CSV output malformed:\n%s", csv.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"nope"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing experiment accepted")
	}
	if err := run([]string{"-sizes", "12,x", "quality"}, &out); err == nil {
		t.Fatal("bad sizes accepted")
	}
}

// TestTimeoutCancelsRun exercises the context plumbing end-to-end: an
// already-expired -timeout aborts the simulated experiment within one round,
// and -json reports the cancellation plus the partial cost instead of
// failing.
func TestTimeoutCancelsRun(t *testing.T) {
	env := runJSON(t, []string{
		"-quick", "-json", "-timeout", "1ns",
		"-dist-sizes", "400", "-diameters", "4", "rounds",
	})
	if !env.Run.Canceled {
		t.Fatalf("run not reported canceled: %+v", env.Run)
	}
	if env.Run.Error == "" {
		t.Error("canceled run carries no error detail")
	}
	if env.Run.Cost == nil || env.Run.Cost.Wall <= 0 {
		t.Errorf("canceled run carries no partial cost: %+v", env.Run.Cost)
	}
}

// TestTimeoutGenerous asserts a comfortable -timeout leaves the run intact
// and still reports the wall cost.
func TestTimeoutGenerous(t *testing.T) {
	env := runJSON(t, []string{
		"-quick", "-json", "-timeout", "5m",
		"-sizes", "400", "-diameters", "4", "quality",
	})
	if env.Run.Canceled {
		t.Fatalf("generous timeout canceled the run: %+v", env.Run)
	}
	if len(env.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(env.Tables))
	}
	if env.Run.Cost == nil || env.Run.Cost.Wall <= 0 {
		t.Errorf("run carries no cost: %+v", env.Run.Cost)
	}
}

// TestPersistenceSweepJSON drives the E16 persistence experiment at tiny
// scale: one row per size, carrying the load timings and the cold-start
// speedup, with the largest snapshot persisted to -snapshot-out.
func TestPersistenceSweepJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.lcsnap")
	env := runJSON(t, []string{
		"-quick", "-json", "-persist-sizes", "300,500", "-snapshot-out", path,
	})
	if len(env.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(env.Tables))
	}
	tbl := env.Tables[0]
	if !strings.Contains(tbl.Title, "E16") {
		t.Fatalf("unexpected table: %q", tbl.Title)
	}
	if len(tbl.Rows) != 2 { // one row per size
		t.Fatalf("want 2 sweep rows, got %d", len(tbl.Rows))
	}
	if _, ok := tbl.Meta["n500_load_mmap_ms"]; !ok {
		t.Fatalf("missing load timing meta: %v", tbl.Meta)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("-snapshot-out not written: %v", err)
	}

	// Round trip: -snapshot-in serves E14 off the persisted file.
	env = runJSON(t, []string{
		"-quick", "-json", "-snapshot-in", path,
		"-serve-queries", "8", "-serve-executors", "1", "-serve-batches", "1",
	})
	if len(env.Tables) != 1 || !strings.Contains(env.Tables[0].Title, "E14") {
		t.Fatalf("-snapshot-in run: %+v", env.Tables)
	}
	found := false
	for _, note := range env.Tables[0].Notes {
		found = found || strings.Contains(note, "persisted snapshot")
	}
	if !found {
		t.Fatalf("E14 notes do not mention the persisted snapshot: %v", env.Tables[0].Notes)
	}
}

func TestPersistenceFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-persist-sizes", "x", "persistence"}, &out); err == nil {
		t.Fatal("bad -persist-sizes accepted")
	}
	if err := run([]string{"-snapshot-in", "/nonexistent/snap.lcsnap", "serving"}, &out); err == nil {
		t.Fatal("missing -snapshot-in file accepted")
	}
}

// TestMetricsOut drives an instrumented -serve sweep: the -metrics-out file
// must hold the registry's JSON snapshot, and the -json envelope must carry
// the same snapshot under run.metrics, with counters consistent with the
// sweep the tables describe.
func TestMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if err := run([]string{
		"-quick", "-json", "-serve", "-dist-sizes", "300",
		"-serve-queries", "8", "-serve-executors", "1,2", "-serve-batches", "1,4",
		"-metrics-out", path,
	}, &out); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Run struct {
			Metrics *obs.Snapshot `json:"metrics"`
		} `json:"run"`
	}
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if env.Run.Metrics == nil {
		t.Fatal("-json envelope missing run.metrics")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics-out file does not parse: %v", err)
	}

	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	// 2 executor settings × 8 queries per sweep point: the batch-4 points
	// send 2 × 8 = 16 queries through batched groups.
	if counters["lcs_serve_coalesce_in_total"] != 16 {
		t.Fatalf("coalesce_in = %d, want 16: %v", counters["lcs_serve_coalesce_in_total"], counters)
	}
	sawLatency, sawEpoch := false, false
	for _, h := range snap.Histograms {
		if h.Name == "lcs_serve_latency_ns" && h.Labels["kind"] == "sssp" {
			sawLatency = true
			// 16 singles plus 2 × 2 batched groups.
			if h.Count != 20 || h.P50 <= 0 || h.P99 < h.P50 {
				t.Fatalf("sssp latency summary implausible: %+v", h)
			}
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "lcs_store_epoch" {
			sawEpoch = true
			if g.Value != 1 {
				t.Fatalf("store epoch = %d, want 1 (no swaps in the sweep)", g.Value)
			}
		}
	}
	if !sawLatency || !sawEpoch {
		t.Fatalf("missing per-kind latency or store epoch series (latency=%v epoch=%v)", sawLatency, sawEpoch)
	}
	if len(snap.Traces) == 0 {
		t.Fatal("no query traces retained")
	}
}
