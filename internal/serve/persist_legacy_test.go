package serve_test

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/snapio"
)

// legacySnapshot is a snapshot file written by an earlier release, whose
// container still carries sections 17..24 (a tree-only CSR and its arc
// weights, now retired). It holds makeSimulatedFixture(t, 64, 64): the
// release that wrote it simulated the shortcut-MST on every build.
const legacySnapshot = "testdata/legacy-n64.lcsnap"

// TestPersistLoadsLegacyFile pins backward compatibility of the container
// format: a file written before sections 17..24 were retired must still
// load, verified, on both the mmap and the heap path, and answer every
// query kind exactly as a fresh build of the same seeded fixture does.
func TestPersistLoadsLegacyFile(t *testing.T) {
	f, err := snapio.Open(legacySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(17); id <= 24; id++ {
		if _, err := f.Section(id); err != nil {
			t.Fatalf("legacy file lacks retired section %d: %v", id, err)
		}
	}
	f.Close()

	fx := makeSimulatedFixture(t, 64, 64)
	for _, mode := range []struct {
		name string
		opts serve.LoadOptions
	}{
		{"mmap", serve.LoadOptions{}},
		{"heap", serve.LoadOptions{NoMmap: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			loaded, err := serve.LoadSnapshot(legacySnapshot, mode.opts)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			defer loaded.Close()
			if loaded.Generation() != fx.snap.Generation() || loaded.TreeWeight() != fx.snap.TreeWeight() {
				t.Fatalf("generation %d weight %v, want %d %v",
					loaded.Generation(), loaded.TreeWeight(), fx.snap.Generation(), fx.snap.TreeWeight())
			}
			br, bm, bp := fx.snap.BuildCost()
			lr, lm, lp := loaded.BuildCost()
			if br != lr || bm != lm || bp != lp {
				t.Fatalf("build cost %d/%d/%d, want %d/%d/%d", lr, lm, lp, br, bm, bp)
			}
			assertSnapshotsEqual(t, mode.name, loaded, fx.snap)
			assertServesIdentically(t, mode.name, loaded, fx.snap, fx.g, fx.parts)
		})
	}
}
