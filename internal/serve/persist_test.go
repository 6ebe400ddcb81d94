package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/snapio"
	"repro/internal/sssp"
	"repro/internal/twoecss"
)

// persistFixture builds one serving snapshot for persistence tests.
func persistFixture(t testing.TB, famIdx, n, workers int, seed int64) (*serve.Snapshot, *graph.Graph, [][]graph.NodeID) {
	t.Helper()
	fam := diffFamilies()[famIdx]
	genRng := rand.New(rand.NewSource(seed))
	g := fam.make(n, genRng)
	w := graph.NewUniformWeights(g.NumEdges(), genRng)
	parts, err := gen.VoronoiParts(g, 12, genRng)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
		Rng: rand.New(rand.NewSource(seed + 1)), Diameter: 6, LogFactor: 0.3, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sn, g, parts
}

// persistQueries returns one query of every family the snapshot can answer,
// with a quality query for every part.
func persistQueries(g *graph.Graph, parts [][]graph.NodeID) []serve.Query {
	queries := []serve.Query{
		serve.SSSPQuery{Source: 0},
		serve.SSSPQuery{Source: graph.NodeID(g.NumNodes() / 2)},
		serve.SSSPQuery{Source: graph.NodeID(g.NumNodes() - 1)},
		serve.MSTQuery{},
		serve.MinCutQuery{},
		serve.MinCutQuery{Eps: 0.5},
	}
	queries = append(queries, everyPartQuality(parts)...)
	if len(twoecss.Bridges(g, allEdges(g))) == 0 {
		queries = append(queries, serve.TwoECSSQuery{})
	}
	return queries
}

// everyPartQuality returns one QualityQuery per part.
func everyPartQuality(parts [][]graph.NodeID) []serve.Query {
	queries := make([]serve.Query, len(parts))
	for i := range parts {
		queries[i] = serve.QualityQuery{Part: i}
	}
	return queries
}

// assertServesIdentically drives both snapshots through every query family
// (plus one batch) and requires bit-identical answers.
func assertServesIdentically(t *testing.T, tag string, got, want *serve.Snapshot,
	g *graph.Graph, parts [][]graph.NodeID) {
	t.Helper()
	srvG := serve.NewServer(got, serve.ServerOptions{Executors: 2, Seed: 99})
	srvW := serve.NewServer(want, serve.ServerOptions{Executors: 2, Seed: 99})
	queries := persistQueries(g, parts)
	for qi, q := range queries {
		ag, err := srvG.Serve(q)
		if err != nil {
			t.Fatalf("%s q%d: loaded: %v", tag, qi, err)
		}
		aw, err := srvW.Serve(q)
		if err != nil {
			t.Fatalf("%s q%d: original: %v", tag, qi, err)
		}
		assertAnswersEqual(t, fmt.Sprintf("%s q%d", tag, qi), ag, aw)
	}
	bg, err := srvG.ServeBatch(queries)
	if err != nil {
		t.Fatalf("%s: loaded batch: %v", tag, err)
	}
	bw, err := srvW.ServeBatch(queries)
	if err != nil {
		t.Fatalf("%s: original batch: %v", tag, err)
	}
	for i := range queries {
		assertAnswersEqual(t, fmt.Sprintf("%s batch %d", tag, i), bg[i], bw[i])
	}
}

// TestPersistRoundTrip is the tentpole pin: for every graph family × load
// mode, Write→Load answers every query family bit-identical to the built
// snapshot, with the build's worker count varied across families.
func TestPersistRoundTrip(t *testing.T) {
	const n = 360
	modes := []struct {
		name string
		opts serve.LoadOptions
	}{
		{"mmap", serve.LoadOptions{}},
		{"heap", serve.LoadOptions{NoMmap: true}},
		{"mmap-noverify", serve.LoadOptions{SkipVerify: true}},
	}
	for fi := range diffFamilies() {
		fam := diffFamilies()[fi]
		buildWorkers := fi % 3
		t.Run(fam.name, func(t *testing.T) {
			sn, g, parts := persistFixture(t, fi, n, buildWorkers, int64(500+fi))
			path := filepath.Join(t.TempDir(), "snap.lcsnap")
			if err := serve.WriteSnapshotFile(path, sn); err != nil {
				t.Fatalf("write: %v", err)
			}
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					loaded, err := serve.LoadSnapshot(path, mode.opts)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					defer loaded.Close()
					if mode.opts.NoMmap && loaded.Mapped() {
						t.Fatal("NoMmap load reports Mapped")
					}
					if loaded.Generation() != sn.Generation() {
						t.Fatalf("generation %d, want %d", loaded.Generation(), sn.Generation())
					}
					if loaded.Diameter() != sn.Diameter() || loaded.TreeWeight() != sn.TreeWeight() {
						t.Fatalf("scalars: d=%d w=%v, want d=%d w=%v",
							loaded.Diameter(), loaded.TreeWeight(), sn.Diameter(), sn.TreeWeight())
					}
					br, bm, bp := sn.BuildCost()
					lr, lm, lp := loaded.BuildCost()
					if br != lr || bm != lm || bp != lp {
						t.Fatalf("build cost %d/%d/%d, want %d/%d/%d", lr, lm, lp, br, bm, bp)
					}
					assertSnapshotsEqual(t, mode.name, loaded, sn)
					assertServesIdentically(t, mode.name, loaded, sn, g, parts)
				})
			}
		})
	}
}

// TestPersistStreamRoundTrip pins the io.WriterTo / io.Reader pair: a
// snapshot shipped through a plain byte stream (no file, no mmap) still
// serves identically.
func TestPersistStreamRoundTrip(t *testing.T) {
	sn, g, parts := persistFixture(t, 0, 240, 0, 900)
	var buf bytes.Buffer
	written, err := sn.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if written != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", written, buf.Len())
	}
	loaded, err := serve.ReadSnapshot(bytes.NewReader(buf.Bytes()), serve.LoadOptions{})
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	assertSnapshotsEqual(t, "stream", loaded, sn)
	assertServesIdentically(t, "stream", loaded, sn, g, parts)
}

// TestPersistAfterDelta pins the dynamic path across persistence: repair →
// save → load serves identically to the in-memory repaired snapshot, the
// repair record survives, and a further ApplyDelta on the LOADED snapshot
// agrees bit-for-bit with the same delta applied to the in-memory one —
// i.e. the repair-critical state (sampling seed, per-part dilations,
// diameter) persisted losslessly.
func TestPersistAfterDelta(t *testing.T) {
	const n = 360
	sn, g, parts := persistFixture(t, 0, n, 0, 1300)
	partOf := partOfTable(g.NumNodes(), parts)
	deltaRng := rand.New(rand.NewSource(1301))
	var repaired *serve.Snapshot
	var g1 *graph.Graph
	var d graph.Delta
	for attempt := 0; ; attempt++ {
		d = diffDelta(g, partOf, 48, deltaRng)
		var err error
		repaired, err = serve.ApplyDelta(context.Background(), sn, d, serve.DeltaOptions{})
		if err == nil {
			break
		}
		if attempt >= 5 {
			t.Fatalf("repair failed %d times, last: %v", attempt, err)
		}
	}
	var err error
	g1, _, _, err = graph.ApplyDelta(g, sn.Weights(), d)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "gen1.lcsnap")
	if err := serve.WriteSnapshotFile(path, repaired); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	defer loaded.Close()

	if loaded.Generation() != 1 {
		t.Fatalf("generation %d, want 1", loaded.Generation())
	}
	lr, rr := loaded.Repair(), repaired.Repair()
	if lr == nil || rr == nil {
		t.Fatalf("repair records: loaded %v, original %v", lr, rr)
	}
	if lr.Inserted != rr.Inserted || lr.Deleted != rr.Deleted || lr.Rechecked != rr.Rechecked ||
		len(lr.Touched) != len(rr.Touched) {
		t.Fatalf("repair record %+v, want %+v", lr, rr)
	}
	for i := range rr.Touched {
		if lr.Touched[i] != rr.Touched[i] {
			t.Fatalf("touched[%d] %d, want %d", i, lr.Touched[i], rr.Touched[i])
		}
	}
	assertSnapshotsEqual(t, "gen1", loaded, repaired)
	assertServesIdentically(t, "gen1", loaded, repaired, g1, parts)

	// Second delta, applied to both the loaded and the in-memory snapshot.
	for attempt := 0; ; attempt++ {
		d2 := diffDelta(g1, partOf, 24, deltaRng)
		nextMem, errM := serve.ApplyDelta(context.Background(), repaired, d2, serve.DeltaOptions{})
		nextLoad, errL := serve.ApplyDelta(context.Background(), loaded, d2, serve.DeltaOptions{})
		if (errM == nil) != (errL == nil) {
			t.Fatalf("delta diverged: in-memory err %v, loaded err %v", errM, errL)
		}
		if errM != nil {
			if attempt >= 5 {
				t.Fatalf("second repair failed %d times, last: %v", attempt, errM)
			}
			continue
		}
		if nextLoad.Generation() != 2 || nextMem.Generation() != 2 {
			t.Fatalf("generations %d/%d, want 2/2", nextLoad.Generation(), nextMem.Generation())
		}
		assertSnapshotsEqual(t, "gen2", nextLoad, nextMem)
		break
	}
}

// TestPersistCorruption walks corrupted containers through the full loader:
// every mutation must surface as a typed *reproerr.Error — never a panic,
// never a silently wrong snapshot.
func TestPersistCorruption(t *testing.T) {
	sn, _, _ := persistFixture(t, 0, 240, 0, 1700)
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	load := func(b []byte) error {
		_, err := serve.ReadSnapshot(bytes.NewReader(b), serve.LoadOptions{})
		return err
	}
	if err := load(raw); err != nil {
		t.Fatalf("pristine: %v", err)
	}

	// Truncations at coarse strides (every byte is covered by the snapio
	// unit test; here we pin the full snapshot loader).
	for cut := 0; cut < len(raw); cut += 997 {
		err := load(raw[:cut])
		if err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
		var e *reproerr.Error
		if !errors.As(err, &e) {
			t.Fatalf("truncation to %d: untyped error %v", cut, err)
		}
	}
	// Byte flips at coarse strides.
	for off := 0; off < len(raw); off += 509 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xFF
		err := load(mut)
		if err == nil {
			// The flip landed in alignment padding — covered by no checksum
			// and read by nothing.
			continue
		}
		var e *reproerr.Error
		if !errors.As(err, &e) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
		if e.Kind != reproerr.KindCorrupt {
			t.Fatalf("flip at %d: kind %v, want KindCorrupt", off, e.Kind)
		}
	}

	// A missing file is a typed failure too.
	if _, err := serve.LoadSnapshot(filepath.Join(t.TempDir(), "absent"), serve.LoadOptions{}); err == nil {
		t.Fatal("absent file accepted")
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent file: %v does not wrap ErrNotExist", err)
	}
}

// TestPersistSkipVerifyCorruptTreeIndex loads, with SkipVerify, a file
// whose tree-index target section names a node past n. No checksum or deep
// scan runs on that path, so the tree index's own load-time checks must
// turn the file away with a typed KindCorrupt error — before a warm walk
// could index out of range.
func TestPersistSkipVerifyCorruptTreeIndex(t *testing.T) {
	sn, g, _ := persistFixture(t, 0, 240, 0, 1800)
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The persisted targets are the CSR NewTreeIndex derives from the
	// snapshot's own tree; find that section's bytes in the file.
	ti, err := sssp.NewTreeIndex(g, sn.Weights(), sn.Tree())
	if err != nil {
		t.Fatal(err)
	}
	_, to, _ := ti.Raw()
	targets := snapio.Int32Bytes(to)
	at := bytes.Index(raw, targets)
	if at < 0 || bytes.LastIndex(raw, targets) != at {
		t.Fatalf("tree-index target section not found exactly once (at %d)", at)
	}
	binary.LittleEndian.PutUint32(raw[at:], uint32(g.NumNodes()+5))
	path := filepath.Join(t.TempDir(), "corrupt.lcsnap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{SkipVerify: true})
	if err == nil {
		loaded.Close()
		t.Fatal("SkipVerify load accepted an out-of-range tree-index target")
	}
	var e *reproerr.Error
	if !errors.As(err, &e) || e.Kind != reproerr.KindCorrupt {
		t.Fatalf("err = %v, want a KindCorrupt *reproerr.Error", err)
	}
}

// TestPersistClose pins Close semantics: idempotent, nil-safe, a no-op for
// built snapshots.
func TestPersistClose(t *testing.T) {
	sn, _, _ := persistFixture(t, 0, 240, 0, 2100)
	if err := sn.Close(); err != nil {
		t.Fatalf("Close on built snapshot: %v", err)
	}
	if sn.Mapped() {
		t.Fatal("built snapshot reports Mapped")
	}
	path := filepath.Join(t.TempDir(), "snap.lcsnap")
	if err := serve.WriteSnapshotFile(path, sn); err != nil {
		t.Fatal(err)
	}
	loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilSnap *serve.Snapshot
	if err := nilSnap.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestSwapFromFile pins the replica shipping path: a store swaps shipped
// bytes in under live traffic, bumps its epoch, rejects a stale replay of
// the same chain, and the drained retired snapshot closes cleanly.
func TestSwapFromFile(t *testing.T) {
	sn, g, parts := persistFixture(t, 0, 360, 0, 2500)
	partOf := partOfTable(g.NumNodes(), parts)
	deltaRng := rand.New(rand.NewSource(2501))
	var repaired *serve.Snapshot
	for attempt := 0; ; attempt++ {
		d := diffDelta(g, partOf, 32, deltaRng)
		var err error
		repaired, err = serve.ApplyDelta(context.Background(), sn, d, serve.DeltaOptions{})
		if err == nil {
			break
		}
		if attempt >= 5 {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	gen0, gen1 := filepath.Join(dir, "gen0.lcsnap"), filepath.Join(dir, "gen1.lcsnap")
	if err := serve.WriteSnapshotFile(gen0, sn); err != nil {
		t.Fatal(err)
	}
	if err := serve.WriteSnapshotFile(gen1, repaired); err != nil {
		t.Fatal(err)
	}

	// Replica: boots from the shipped generation-0 file, serves, then swaps
	// the shipped generation-1 bytes in under traffic.
	boot, err := serve.LoadSnapshot(gen0, serve.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := serve.NewStore(boot)
	srv := serve.NewStoreServer(st, serve.ServerOptions{Executors: 2, Seed: 7})
	bootAns, err := srv.Serve(serve.SSSPQuery{Source: 0})
	if err != nil {
		t.Fatalf("boot query: %v", err)
	}

	// Replaying the same generation (or older, same chain) is stale.
	if _, _, err := st.SwapFromFile(gen0, serve.LoadOptions{}); reproerr.KindOf(err) != reproerr.KindInvalidInput {
		t.Fatalf("stale swap: %v", err)
	}
	if st.Epoch() != 1 || st.Swaps() != 0 {
		t.Fatalf("store mutated by rejected swap: epoch %d swaps %d", st.Epoch(), st.Swaps())
	}

	retired, err := st.SwapFromFileCtx(context.Background(), gen1, serve.LoadOptions{})
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if retired != boot {
		t.Fatal("retired snapshot is not the boot snapshot")
	}
	if st.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", st.Epoch())
	}
	if gen := st.Snapshot().Generation(); gen != 1 {
		t.Fatalf("active generation %d, want 1", gen)
	}
	// Drained: safe to release the retired mapping, then keep serving — the
	// new epoch's answers come off the generation-1 snapshot.
	if err := retired.Close(); err != nil {
		t.Fatalf("close retired: %v", err)
	}
	ans, err := srv.Serve(serve.SSSPQuery{Source: 0})
	if err != nil {
		t.Fatalf("post-swap query: %v", err)
	}
	srvMem := serve.NewServer(repaired, serve.ServerOptions{Executors: 1, Seed: 7})
	want, err := srvMem.Serve(serve.SSSPQuery{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	assertAnswersEqual(t, "post-swap", ans, want)
	if bootDist, newDist := bootAns.(*serve.SSSPAnswer).Dist, ans.(*serve.SSSPAnswer).Dist; len(bootDist) != len(newDist) {
		t.Fatalf("distance vector length changed across swap: %d vs %d", len(bootDist), len(newDist))
	}
}
