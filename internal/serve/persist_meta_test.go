package serve

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// TestPersistMetaScalars pins the meta record's range checks on both load
// paths. A file carrying a NaN log factor or a diameter below 1 loads as
// KindCorrupt: no build writes either, and a delta on such a snapshot
// would sample at probability NaN (before the check, the first ApplyDelta
// after loading it panicked). A ±Inf log factor, which a build can write,
// still loads and takes a delta.
func TestPersistMetaScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := gen.ClusterChain(120, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var insert graph.Delta
	for v := graph.NodeID(2); int(v) < g.NumNodes() && insert.Size() == 0; v++ {
		if !g.HasEdge(0, v) {
			insert.Insert = append(insert.Insert, graph.DeltaEdge{U: 0, V: v, W: 0.5})
		}
	}

	cases := []struct {
		name      string
		logFactor float64            // the build's option
		patch     func(sn *Snapshot) // applied before writing; nil = none
		ok        bool
	}{
		{"NaN log factor", 0.3, func(sn *Snapshot) { sn.logFactor = math.NaN() }, false},
		{"diameter 0", 0.3, func(sn *Snapshot) { sn.diameter = 0 }, false},
		{"diameter -2", 0.3, func(sn *Snapshot) { sn.diameter = -2 }, false},
		{"+Inf log factor", math.Inf(1), nil, true},
		{"-Inf log factor", math.Inf(-1), nil, true},
	}
	for _, tc := range cases {
		sn, err := NewSnapshot(g, w, parts, SnapshotOptions{
			Rng: rand.New(rand.NewSource(32)), Diameter: 4, LogFactor: tc.logFactor,
		})
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		if tc.patch != nil {
			tc.patch(sn)
		}
		path := filepath.Join(t.TempDir(), "snap.lcsnap")
		if err := WriteSnapshotFile(path, sn); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		for _, opts := range []LoadOptions{{}, {SkipVerify: true}} {
			loaded, err := LoadSnapshot(path, opts)
			if !tc.ok {
				if reproerr.KindOf(err) != reproerr.KindCorrupt {
					t.Errorf("%s (SkipVerify %v): err = %v, want KindCorrupt", tc.name, opts.SkipVerify, err)
				}
				if err == nil {
					loaded.Close()
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (SkipVerify %v): load: %v", tc.name, opts.SkipVerify, err)
			}
			if _, err := ApplyDelta(context.Background(), loaded, insert, DeltaOptions{}); err != nil {
				t.Errorf("%s (SkipVerify %v): delta: %v", tc.name, opts.SkipVerify, err)
			}
			loaded.Close()
		}
	}
}
