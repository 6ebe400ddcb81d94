package expt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// trajectory is the decoded shape of a trajectory file.
type trajectory struct {
	Trajectory []TrajectoryEntry `json:"trajectory"`
}

func readTrajectory(t *testing.T, path string) trajectory {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf trajectory
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trajectory file is not valid JSON: %v\n%s", err, raw)
	}
	return tf
}

// readEntries decodes a trajectory file's entries generically, keys
// RunInfo and TrajectoryEntry do not declare included.
func readEntries(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Trajectory []map[string]any `json:"trajectory"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trajectory file is not valid JSON: %v\n%s", err, raw)
	}
	return tf.Trajectory
}

func sampleTable(title string) *Table {
	tb := NewTable(title, "x", "y")
	tb.AddRow("1", "2")
	return tb
}

// TestAppendJSON pins the trajectory writer: a missing file starts at seq 0,
// repeated appends accumulate with increasing seq and preserved tags, and an
// append copies earlier entries as written, keys the current build does not
// declare included.
func TestAppendJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")

	if err := AppendJSON(path, "first", RunInfo{Seed: 1}, []*Table{sampleTable("A")}); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "second", RunInfo{Seed: 2}, []*Table{sampleTable("B")}); err != nil {
		t.Fatal(err)
	}
	tf := readTrajectory(t, path)
	if len(tf.Trajectory) != 2 {
		t.Fatalf("got %d entries, want 2", len(tf.Trajectory))
	}
	for i, want := range []struct {
		tag   string
		seed  int64
		title string
	}{{"first", 1, "A"}, {"second", 2, "B"}} {
		e := tf.Trajectory[i]
		if e.Seq != i || e.Tag != want.tag || e.Run.Seed != want.seed ||
			len(e.Tables) != 1 || e.Tables[0].Title != want.title {
			t.Fatalf("entry %d = %+v, want seq=%d tag=%q seed=%d title=%q", i, e, i, want.tag, want.seed, want.title)
		}
		if e.RecordedAt == "" {
			t.Fatalf("entry %d has no timestamp", i)
		}
	}

	// An entry written by an older build, with keys this one does not
	// declare, must survive the next append unchanged.
	old := `{"trajectory": [{"seq": 0, "tag": "old", "note": "kept",
		"run": {"engine": "pool", "workers": -1, "commit": "abc123", "seed": 1, "canceled": false},
		"tables": [{"title": "A", "columns": ["x"], "rows": [["1"]]}]}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "third", RunInfo{Seed: 3}, []*Table{sampleTable("C")}); err != nil {
		t.Fatal(err)
	}
	entries := readEntries(t, path)
	if len(entries) != 2 || entries[1]["seq"] != 1.0 || entries[1]["tag"] != "third" {
		t.Fatalf("got %v, want the old entry and a new one at seq 1", entries)
	}
	run, _ := entries[0]["run"].(map[string]any)
	if run["engine"] != "pool" || run["workers"] != -1.0 || run["commit"] != "abc123" || entries[0]["note"] != "kept" {
		t.Fatalf("append dropped keys of an earlier entry: %v", entries[0])
	}
}

// TestAppendJSONLegacyUpgrade pins the upgrade of a single-run {run,
// tables} file: it becomes entry 0, its run copied as written.
func TestAppendJSONLegacyUpgrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_legacy.json")
	legacy := `{"run": {"engine": "pool", "workers": -1, "commit": "abc123", "seed": 7, "canceled": false},
		"tables": [{"title": "old", "columns": ["x", "y"], "rows": [["1", "2"]]}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := AppendJSON(path, "new", RunInfo{Seed: 8}, []*Table{sampleTable("new")}); err != nil {
		t.Fatal(err)
	}
	tf := readTrajectory(t, path)
	if len(tf.Trajectory) != 2 {
		t.Fatalf("got %d entries, want legacy + new", len(tf.Trajectory))
	}
	old := tf.Trajectory[0]
	if old.Seq != 0 || old.Tag != "legacy" || old.RecordedAt != "" ||
		old.Run.Seed != 7 || old.Tables[0].Title != "old" {
		t.Fatalf("legacy entry not preserved: %+v", old)
	}
	if tf.Trajectory[1].Seq != 1 || tf.Trajectory[1].Tag != "new" {
		t.Fatalf("appended entry wrong: %+v", tf.Trajectory[1])
	}
	run, _ := readEntries(t, path)[0]["run"].(map[string]any)
	if run["engine"] != "pool" || run["workers"] != -1.0 || run["commit"] != "abc123" {
		t.Fatalf("upgrade dropped keys of the legacy run: %v", run)
	}
}

func TestAppendJSONRefusesGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_garbage.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "", RunInfo{}, []*Table{sampleTable("x")}); err == nil {
		t.Fatal("AppendJSON overwrote an unrecognized file")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "not json at all" {
		t.Fatalf("refused append still modified the file: %q", raw)
	}
}
