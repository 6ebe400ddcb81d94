package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// TrajectoryEntry is one recorded run in a BENCH_*.json trajectory file:
// the {run, tables} envelope WriteJSON emits, stamped with an append
// sequence number, a wall-clock timestamp, and an optional caller tag (a PR
// number, a commit, a machine name — whatever identifies the epoch).
type TrajectoryEntry struct {
	Seq        int         `json:"seq"`
	RecordedAt string      `json:"recorded_at,omitempty"`
	Tag        string      `json:"tag,omitempty"`
	Run        RunInfo     `json:"run"`
	Tables     []jsonTable `json:"tables"`
}

// trajectoryFile is the on-disk shape: {"trajectory": [entry, ...]}. The
// entries stay raw JSON, so an append carries earlier entries over as they
// were written, keys this build no longer declares included.
type trajectoryFile struct {
	Trajectory []json.RawMessage `json:"trajectory"`
}

// AppendJSON appends one run to the trajectory file at path, so repeated
// bench runs accumulate a performance history instead of each overwriting
// the last. A missing or empty file starts a fresh trajectory; a legacy
// single-run {run, tables} file (the old overwrite format) is upgraded in
// place — its content becomes entry 0 (tag "legacy", no timestamp) and the
// new run entry 1. Anything else is refused rather than clobbered. Earlier
// entries are copied as raw JSON, not decoded. The write is atomic: a temp
// file in the same directory, then rename.
func AppendJSON(path, tag string, run RunInfo, tables []*Table) error {
	var tf trajectoryFile
	raw, err := os.ReadFile(path)
	switch {
	case err != nil && !os.IsNotExist(err):
		return fmt.Errorf("bench trajectory: %w", err)
	case err == nil && len(bytes.TrimSpace(raw)) > 0:
		if jerr := json.Unmarshal(raw, &tf); jerr != nil || tf.Trajectory == nil {
			var legacy struct {
				Run    json.RawMessage   `json:"run"`
				Tables []json.RawMessage `json:"tables"`
			}
			if jerr := json.Unmarshal(raw, &legacy); jerr != nil || len(legacy.Tables) == 0 {
				return fmt.Errorf("bench trajectory: %s is neither a trajectory nor a {run, tables} envelope; refusing to overwrite", path)
			}
			entry, err := json.Marshal(struct {
				Seq    int               `json:"seq"`
				Tag    string            `json:"tag"`
				Run    json.RawMessage   `json:"run"`
				Tables []json.RawMessage `json:"tables"`
			}{0, "legacy", legacy.Run, legacy.Tables})
			if err != nil {
				return fmt.Errorf("bench trajectory: %w", err)
			}
			tf.Trajectory = []json.RawMessage{entry}
		}
	}
	entry, err := json.Marshal(TrajectoryEntry{
		Seq:        len(tf.Trajectory),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Tag:        tag,
		Run:        run,
		Tables:     toJSONTables(tables),
	})
	if err != nil {
		return fmt.Errorf("bench trajectory: %w", err)
	}
	tf.Trajectory = append(tf.Trajectory, entry)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bench-*.json")
	if err != nil {
		return fmt.Errorf("bench trajectory: %w", err)
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("bench trajectory: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("bench trajectory: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("bench trajectory: %w", err)
	}
	return nil
}
