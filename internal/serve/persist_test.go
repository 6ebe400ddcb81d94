package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/snapio"
	"repro/internal/twoecss"
)

// persistFixture builds one serving snapshot for persistence tests.
func persistFixture(t testing.TB, famIdx, n int, seed int64) (*serve.Snapshot, *graph.Graph, [][]graph.NodeID) {
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
		Rng: rand.New(rand.NewSource(seed + 1)), Diameter: 6, LogFactor: 0.3,
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
// snapshot.
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
		t.Run(fam.name, func(t *testing.T) {
			sn, g, parts := persistFixture(t, fi, n, int64(500+fi))
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
	sn, g, parts := persistFixture(t, 0, 240, 900)
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

// TestWriteSnapshotFileFailedRename points WriteSnapshotFile at an existing
// non-empty directory, so the final rename fails: the error is typed, no
// .snap-* temp file is left behind, and the directory is untouched.
func TestWriteSnapshotFileFailedRename(t *testing.T) {
	sn, _, _ := persistFixture(t, 0, 240, 950)
	dir := t.TempDir()
	target := filepath.Join(dir, "snap.lcsnap")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	var re *reproerr.Error
	if err := serve.WriteSnapshotFile(target, sn); !errors.As(err, &re) {
		t.Fatalf("rename onto a directory: %v, want a *reproerr.Error", err)
	}
	if temps, err := filepath.Glob(filepath.Join(dir, ".snap-*")); err != nil || len(temps) != 0 {
		t.Fatalf("temp files left behind: %v (%v)", temps, err)
	}
	entries, err := os.ReadDir(target)
	if err != nil || len(entries) != 1 || entries[0].Name() != "keep" {
		t.Fatalf("target directory changed: %v (%v)", entries, err)
	}
	if b, err := os.ReadFile(filepath.Join(target, "keep")); err != nil || string(b) != "keep" {
		t.Fatalf("target directory content changed: %q (%v)", b, err)
	}
}

// TestPersistAfterDelta pins the dynamic path across persistence: repair →
// save → load serves identically to the in-memory repaired snapshot, the
// repair record survives, and a further ApplyDelta on the LOADED snapshot
// agrees bit-for-bit with the same delta applied to the in-memory one —
// i.e. the repair-critical state (sampling seed, per-part dilations,
// diameter) persisted losslessly.
func TestPersistAfterDelta(t *testing.T) {
	const n = 360
	sn, g, parts := persistFixture(t, 0, n, 1300)
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
	sn, _, _ := persistFixture(t, 0, 240, 1700)
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

// Section IDs of the snapshot format the tests below patch or look for;
// IDs are never renumbered.
const (
	secGraphEdgeU    = 6
	secShortcutEdges = 14
	secTree          = 16
)

// sectionSpan returns the byte offset and length of section id in the
// container image raw, read from the section table the footer locates.
func sectionSpan(t *testing.T, raw []byte, id uint32) (off, length int) {
	t.Helper()
	foot := raw[len(raw)-32:]
	table := int(binary.LittleEndian.Uint64(foot[0:8]))
	count := int(binary.LittleEndian.Uint32(foot[8:12]))
	for i := 0; i < count; i++ {
		rec := raw[table+32*i:]
		if binary.LittleEndian.Uint32(rec[0:4]) == id {
			return int(binary.LittleEndian.Uint64(rec[8:16])), int(binary.LittleEndian.Uint64(rec[16:24]))
		}
	}
	t.Fatalf("section %d not in the table", id)
	return 0, 0
}

// TestPersistWritesNoRetiredSections pins the written format: the tree is
// stored once, as its edge list, and none of the retired sections 17..27
// (a tree-only graph CSR, then the tree index's CSR) is emitted.
func TestPersistWritesNoRetiredSections(t *testing.T) {
	sn, _, _ := persistFixture(t, 0, 240, 1750)
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapio.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Section(secTree); err != nil {
		t.Fatalf("tree edge list missing: %v", err)
	}
	for _, s := range f.Sections() {
		if s.ID >= 17 && s.ID <= 27 {
			t.Errorf("written file carries retired section %d", s.ID)
		}
	}
}

// TestPersistSkipVerifyCorruptTreeIndex loads, with SkipVerify, files whose
// tree edge list is corrupt: an edge ID past m, a repeated tree edge, and a
// tree edge whose EdgeU entry names a node past n. No checksum or deep scan
// runs on that path, so deriving the tree index from the list must turn
// each file away with a typed KindCorrupt error — before a warm walk could
// index out of range.
func TestPersistSkipVerifyCorruptTreeIndex(t *testing.T) {
	sn, g, _ := persistFixture(t, 0, 240, 1800)
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	tree := sn.Tree()
	if len(tree) < 2 {
		t.Fatalf("fixture tree has %d edges", len(tree))
	}
	treeAt, _ := sectionSpan(t, pristine, secTree)
	edgeUAt, _ := sectionSpan(t, pristine, secGraphEdgeU)
	put := func(raw []byte, at, i int, v int32) {
		binary.LittleEndian.PutUint32(raw[at+4*i:], uint32(v))
	}
	cases := []struct {
		name  string
		patch func(raw []byte)
	}{
		{"edge ID past m", func(raw []byte) { put(raw, treeAt, 0, int32(g.NumEdges())) }},
		{"repeated edge", func(raw []byte) { put(raw, treeAt, 1, tree[0]) }},
		{"EdgeU past n", func(raw []byte) { put(raw, edgeUAt, int(tree[0]), int32(g.NumNodes()+5)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := append([]byte(nil), pristine...)
			tc.patch(raw)
			path := filepath.Join(t.TempDir(), "corrupt.lcsnap")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{SkipVerify: true})
			if err == nil {
				loaded.Close()
				t.Fatal("SkipVerify load accepted a corrupt tree")
			}
			var e *reproerr.Error
			if !errors.As(err, &e) || e.Kind != reproerr.KindCorrupt {
				t.Fatalf("err = %v, want a KindCorrupt *reproerr.Error", err)
			}
		})
	}
}

// TestApplyDeltaCorruptStoredShortcuts loads, with SkipVerify, files whose
// stored shortcut edges are corrupt: an entry past m, and a list with two
// entries swapped. Neither load checks them, so the delta that reads the
// lists must refuse each file's snapshot with a typed KindCorrupt error,
// without a panic, and leave the loaded snapshot as it was.
func TestApplyDeltaCorruptStoredShortcuts(t *testing.T) {
	sn, g, _ := persistFixture(t, 0, 240, 1900)
	if p := sn.Shortcuts().Params.P; p >= 1 {
		t.Fatalf("sampling probability %v: a saturated delta reads no stored list", p)
	}
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	at, _ := sectionSpan(t, pristine, secShortcutEdges)
	first := -1 // offset of the first list of at least two edges
	for off, pi := 0, 0; first < 0 && pi < len(sn.Shortcuts().H); pi++ {
		if h := sn.Shortcuts().H[pi]; len(h) >= 2 {
			first = off
		} else {
			off += len(h)
		}
	}
	if first < 0 {
		t.Fatal("fixture has no shortcut list of two edges")
	}
	put := func(raw []byte, i int, v int32) { binary.LittleEndian.PutUint32(raw[at+4*i:], uint32(v)) }
	get := func(raw []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(raw[at+4*i:])) }
	d, err := gen.InsertDelta(g, 1, rand.New(rand.NewSource(1901)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		patch func(raw []byte)
	}{
		{"edge past m", func(raw []byte) { put(raw, first, int32(g.NumEdges()+5)) }},
		{"swapped entries", func(raw []byte) {
			a, b := get(raw, first), get(raw, first+1)
			put(raw, first, b)
			put(raw, first+1, a)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := append([]byte(nil), pristine...)
			tc.patch(raw)
			path := filepath.Join(t.TempDir(), "corrupt.lcsnap")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{SkipVerify: true})
			if err != nil {
				t.Fatalf("SkipVerify load: %v", err)
			}
			defer loaded.Close()
			before := make([][]graph.EdgeID, len(loaded.Shortcuts().H))
			for i, l := range loaded.Shortcuts().H {
				before[i] = slices.Clone(l)
			}
			next, err := serve.ApplyDelta(context.Background(), loaded, d, serve.DeltaOptions{})
			if next != nil || reproerr.KindOf(err) != reproerr.KindCorrupt {
				t.Fatalf("ApplyDelta: snapshot %v, err %v; want none and a KindCorrupt error", next != nil, err)
			}
			if loaded.Generation() != 0 || !reflect.DeepEqual(loaded.Shortcuts().H, before) {
				t.Fatal("the refused delta changed its base")
			}
		})
	}
}

// TestApplyDeltaOutlivesClosedBase derives a delta snapshot from a base
// loaded off a file mapping, closes the base, and keeps serving the
// derived snapshot: every part's quality answer and a second delta must
// equal the same chain built in memory. The derived shortcut lists,
// partition node lists and part-of table must share no memory with the
// base, whose arrays the closed mapping backed.
func TestApplyDeltaOutlivesClosedBase(t *testing.T) {
	sn, g, parts := persistFixture(t, 0, 360, 2700)
	path := filepath.Join(t.TempDir(), "base.lcsnap")
	if err := serve.WriteSnapshotFile(path, sn); err != nil {
		t.Fatal(err)
	}
	base, err := serve.LoadSnapshot(path, serve.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if !base.Mapped() {
		t.Skip("no file mapping on this platform")
	}
	partOf := partOfTable(g.NumNodes(), parts)
	deltaRng := rand.New(rand.NewSource(2701))
	d1 := diffDelta(g, partOf, 32, deltaRng)
	mem1, err := serve.ApplyDelta(context.Background(), sn, d1, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next1, err := serve.ApplyDelta(context.Background(), base, d1, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var baseArrays [][]int32
	baseArrays = append(baseArrays, base.Partition().PartOfTable())
	for i, h := range base.Shortcuts().H {
		baseArrays = append(baseArrays, h, base.Partition().Part(i).Nodes)
	}
	derived := [][]int32{next1.Partition().PartOfTable()}
	for i, h := range next1.Shortcuts().H {
		derived = append(derived, h, next1.Partition().Part(i).Nodes)
	}
	for _, a := range derived {
		for _, b := range baseArrays {
			if sharesMemory(a, b) {
				t.Fatal("the delta snapshot aliases its file-backed base")
			}
		}
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	quality := func(tag string, got, want *serve.Snapshot) {
		t.Helper()
		srvG := serve.NewServer(got, serve.ServerOptions{Executors: 1})
		srvW := serve.NewServer(want, serve.ServerOptions{Executors: 1})
		for _, q := range everyPartQuality(parts) {
			ag, err := srvG.Serve(q)
			if err != nil {
				t.Fatal(err)
			}
			aw, err := srvW.Serve(q)
			if err != nil {
				t.Fatal(err)
			}
			assertAnswersEqual(t, tag, ag, aw)
		}
	}
	quality("gen1", next1, mem1)
	assertSnapshotsEqual(t, "gen1", next1, mem1)
	g1, _, _, err := graph.ApplyDelta(g, sn.Weights(), d1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := diffDelta(g1, partOf, 16, deltaRng)
	mem2, err := serve.ApplyDelta(context.Background(), mem1, d2, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next2, err := serve.ApplyDelta(context.Background(), next1, d2, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quality("gen2", next2, mem2)
	assertSnapshotsEqual(t, "gen2", next2, mem2)
}

// sharesMemory reports whether two int32 slices overlap in memory.
func sharesMemory(a, b []int32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(4*len(b)) && b0 < a0+uintptr(4*len(a))
}

// failingWriter accepts the first k bytes written to it, then fails every
// write with err.
type failingWriter struct {
	k   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.k {
		w.k -= len(p)
		return len(p), nil
	}
	n := w.k
	w.k = 0
	return n, w.err
}

// TestPersistWriteToFailingWriter streams a snapshot into a writer that
// fails after k bytes, with k inside the header, a section payload, the
// section table and the footer, and with a short write and a full disk as
// the failure: WriteTo must return a typed error that still carries the
// writer's error, and must not panic.
func TestPersistWriteToFailingWriter(t *testing.T) {
	sn, _, _ := persistFixture(t, 0, 240, 1850)
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	treeAt, treeLen := sectionSpan(t, raw, secTree)
	table := int(binary.LittleEndian.Uint64(raw[len(raw)-32:]))
	cuts := []struct {
		name string
		k    int
	}{
		{"header", 20},
		{"section", treeAt + treeLen/2},
		{"table", table + 40},
		{"footer", len(raw) - 10},
	}
	for _, injected := range []error{io.ErrShortWrite, syscall.ENOSPC} {
		for _, c := range cuts {
			_, err := sn.WriteTo(&failingWriter{k: c.k, err: injected})
			var e *reproerr.Error
			if !errors.As(err, &e) || !errors.Is(err, injected) {
				t.Errorf("%v after %d bytes (%s): err = %v, want a *reproerr.Error wrapping it", injected, c.k, c.name, err)
			}
		}
	}
}

// TestSwapFromFileTruncatedUnderTraffic ships a file cut off inside a
// section payload through SwapFromFileCtx, again and again, while two
// goroutines keep serving sssp and mst queries through the store-backed
// server: every swap is KindCorrupt, the store stays on its epoch with no
// swap counted, and every answer served meanwhile equals the active
// snapshot's.
func TestSwapFromFileTruncatedUnderTraffic(t *testing.T) {
	sn, g, _ := persistFixture(t, 0, 240, 2600)
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	at, length := sectionSpan(t, raw, secTree)
	truncated := filepath.Join(t.TempDir(), "truncated.lcsnap")
	if err := os.WriteFile(truncated, raw[:at+length/2|1], 0o644); err != nil {
		t.Fatal(err)
	}

	queries := []serve.Query{
		serve.SSSPQuery{Source: 0},
		serve.MSTQuery{},
		serve.SSSPQuery{Source: graph.NodeID(g.NumNodes() - 1)},
	}
	ref := serve.NewServer(sn, serve.ServerOptions{Executors: 1, Seed: 7})
	want := make([]serve.Answer, len(queries))
	for i, q := range queries {
		a, err := ref.Serve(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}

	st := serve.NewStore(sn)
	srv := serve.NewStoreServer(st, serve.ServerOptions{Executors: 2, Seed: 7})
	type result struct {
		k   int
		ans serve.Answer
		err error
	}
	results := make([][]result, 2) // one slice per reader, checked after both stop
	stop := make(chan struct{})
	var served atomic.Int64
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(queries)
				ans, err := srv.Serve(queries[k])
				results[r] = append(results[r], result{k, ans, err})
				if err != nil {
					return
				}
				served.Add(1)
			}
		}(r)
	}

	// Keep shipping until the readers have served during the swaps, not
	// only before them.
	before := served.Load()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < 10 || served.Load()-before < 40; i++ {
		if time.Now().After(deadline) {
			t.Errorf("readers served %d answers during %d swaps", served.Load()-before, i)
			break
		}
		if _, err := st.SwapFromFileCtx(context.Background(), truncated, serve.LoadOptions{}); reproerr.KindOf(err) != reproerr.KindCorrupt {
			t.Errorf("swap %d: %v, want KindCorrupt", i, err)
			break
		}
		if st.Epoch() != 1 || st.Swaps() != 0 || st.Snapshot() != sn {
			t.Errorf("swap %d mutated the store: epoch %d swaps %d", i, st.Epoch(), st.Swaps())
			break
		}
	}
	close(stop)
	wg.Wait()
	for r, rs := range results {
		for i, res := range rs {
			tag := fmt.Sprintf("reader %d answer %d", r, i)
			if res.err != nil {
				t.Fatalf("%s: %v", tag, res.err)
			}
			assertAnswersEqual(t, tag, res.ans, want[res.k])
		}
	}
}

// TestPersistClose pins Close semantics: idempotent, nil-safe, a no-op for
// built snapshots.
func TestPersistClose(t *testing.T) {
	sn, _, _ := persistFixture(t, 0, 240, 2100)
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
	sn, g, parts := persistFixture(t, 0, 360, 2500)
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

	// Rejected swaps, through either entry point, leave the store on its
	// boot epoch: replaying the same generation (or older, same chain) is
	// stale, and a file cut off at an odd offset (never a 64-byte-aligned
	// section boundary) is corrupt. Each corrupt load is counted in the
	// load registry by kind, and none of them as a load.
	raw, err := os.ReadFile(gen1)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.lcsnap")
	if err := os.WriteFile(truncated, raw[:len(raw)/2|1], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	lo := serve.LoadOptions{Metrics: reg}
	total := func(name string) (n int64) { // summed over every label set
		for _, c := range reg.Snapshot().Counters {
			if c.Name == name {
				n += c.Value
			}
		}
		return n
	}
	swaps := []struct {
		name string
		swap func(path string) error
	}{
		{"SwapFromFile", func(path string) error {
			_, _, err := st.SwapFromFile(path, lo)
			return err
		}},
		{"SwapFromFileCtx", func(path string) error {
			_, err := st.SwapFromFileCtx(context.Background(), path, lo)
			return err
		}},
	}
	for _, sw := range swaps {
		for _, c := range []struct {
			path string
			kind reproerr.Kind
		}{{gen0, reproerr.KindInvalidInput}, {truncated, reproerr.KindCorrupt}} {
			loads := total("lcs_snapshot_load_total")
			if err := sw.swap(c.path); reproerr.KindOf(err) != c.kind {
				t.Fatalf("%s(%s): %v, want %v", sw.name, filepath.Base(c.path), err, c.kind)
			}
			if st.Epoch() != 1 || st.Swaps() != 0 {
				t.Fatalf("store mutated by rejected %s(%s): epoch %d swaps %d",
					sw.name, filepath.Base(c.path), st.Epoch(), st.Swaps())
			}
			if c.path == truncated && total("lcs_snapshot_load_total") != loads {
				t.Fatalf("refused %s(%s) counted as a load", sw.name, filepath.Base(c.path))
			}
		}
	}
	corrupt := reg.Counter("lcs_snapshot_load_failures_total", "kind", reproerr.KindCorrupt.String()).Value()
	if corrupt != 2 || total("lcs_snapshot_load_failures_total") != 2 {
		t.Fatalf("load failures: %d corrupt of %d, want 2 of 2 (the truncated file through both entry points)",
			corrupt, total("lcs_snapshot_load_failures_total"))
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
