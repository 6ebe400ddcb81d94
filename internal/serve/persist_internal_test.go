package serve

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// TestWriteSnapshotFileSyncFailure injects a failed sync, first of the
// temporary file and then of the directory after the rename. Each write
// must fail with a typed error wrapping the injected one and leave no
// temporary file; the first must also leave the target's old bytes in
// place.
func TestWriteSnapshotFileSyncFailure(t *testing.T) {
	g := gen.Path(8)
	sn, err := NewSnapshot(g, graph.NewUniformWeights(g.NumEdges(), rand.New(rand.NewSource(1))),
		[][]graph.NodeID{{0, 1, 2, 3}, {4, 5, 6, 7}}, SnapshotOptions{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected sync failure")
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	for _, tc := range []struct {
		name     string
		fails    func(f *os.File, dir string) bool
		replaced bool
	}{
		{"temp file", func(f *os.File, dir string) bool { return f.Name() != dir }, false},
		{"directory", func(f *os.File, dir string) bool { return f.Name() == dir }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "snap.lcsnap")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			syncFile = func(f *os.File) error {
				if tc.fails(f, dir) {
					return injected
				}
				return f.Sync()
			}
			err := WriteSnapshotFile(path, sn)
			var e *reproerr.Error
			if !errors.As(err, &e) || !errors.Is(err, injected) {
				t.Fatalf("err = %v, want a *reproerr.Error wrapping the injected failure", err)
			}
			if stray, err := StrayTemps(dir); err != nil || len(stray) != 0 {
				t.Fatalf("temporary files left: %v (%v)", stray, err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if replaced := string(b) != "old"; replaced != tc.replaced {
				t.Fatalf("target replaced = %v, want %v", replaced, tc.replaced)
			}
		})
	}
}
