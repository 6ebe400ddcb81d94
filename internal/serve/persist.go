package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/shortcut"
	"repro/internal/snapio"
	"repro/internal/sssp"
)

// Snapshot persistence: every Snapshot field but the tree index is laid out
// as one snapio section (raw little-endian array) or packed into the fixed
// meta record, so Load rebuilds the serving state by slicing the file
// mapping — no parse, no per-element allocation. The tree index is derived
// again from the stored MST edge list, the one stored form of the tree. See
// DESIGN.md "Snapshot persistence".
//
// Section IDs are part of the format: never renumber, only append. A
// retired ID stays reserved forever, so files that still carry it load
// (the loader ignores sections it does not read).
const (
	secGraphOffsets   = 1 // []int32, n+1
	secGraphNeighbors = 2 // []int32, 2m
	secGraphArcEdge   = 3 // []int32, 2m
	secGraphArcRev    = 4 // []int32, 2m
	secGraphArcTail   = 5 // []int32, 2m
	secGraphEdgeU     = 6 // []int32, m
	secGraphEdgeV     = 7 // []int32, m
	secWeights        = 8 // []float64, m

	secPartOf      = 9  // []int32, n (node -> part, -1 outside)
	secPartLeaders = 10 // []int32, ℓ
	secPartOffsets = 11 // []int32, ℓ+1 (CSR offsets into secPartNodes)
	secPartNodes   = 12 // []int32, Σ|Si|

	secShortcutOffsets = 13 // []int32, ℓ+1 (CSR offsets into secShortcutEdges)
	secShortcutEdges   = 14 // []int32, Σ|Hi|

	secPartDil = 15 // []int32, 4ℓ: per part (congestion, dilLo, dilHi, exact)

	secTree = 16 // []int32, t (shortcut-MST edge IDs into g)

	// 17..24 held a tree-only copy of the graph CSR (layout of 1..7) and
	// its per-arc weights, read by a batch BFS kernel that no longer
	// exists. 25..27 held the tree index's CSR (offsets, arc targets, arc
	// weights), a second copy of secTree that the loader now derives from
	// it. Retired, never reuse: older files still carry them.
	secRetiredFirst = 17
	secRetiredLast  = 27

	secMeta          = 28 // fixed metaSize-byte record, see metaBytes
	secRepairTouched = 29 // []int64, repaired-part indices (present iff repair != nil)
)

// metaSize is the exact byte length of the secMeta record.
const metaSize = 219

// metaBytes packs the scalar Snapshot state into the fixed meta record.
// Field order is part of the format.
func (sn *Snapshot) metaBytes() []byte {
	b := make([]byte, 0, metaSize)
	i64 := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f64 := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	i32 := func(v int32) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	u8 := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	i64(int64(sn.quality.Congestion))
	i32(sn.quality.DilationLo)
	i32(sn.quality.DilationHi)
	u8(sn.quality.Exact)
	f64(sn.treeWeight)
	i64(int64(sn.diameter))
	f64(sn.logFactor)
	i64(int64(sn.dilationCutoff))
	i64(int64(sn.phases))
	i64(int64(sn.qualitySum))
	i64(int64(sn.servRounds))
	i64(sn.servMessages)
	i64(int64(sn.buildCost.Rounds))
	i64(sn.buildCost.Messages)
	i64(int64(sn.buildCost.SchedStats.Rounds))
	i64(sn.buildCost.SchedStats.Messages)
	i64(int64(sn.buildCost.SchedStats.MaxArcLoad))
	i64(int64(sn.buildCost.SchedStats.MaxQueue))
	i64(0) // retired slot (formerly sched.Stats.OrderedVisits): written 0, skipped on read
	i64(int64(sn.buildCost.Wall))
	i64(int64(sn.s.Params.Diameter))
	f64(sn.s.Params.KD)
	i64(int64(sn.s.Params.N))
	f64(sn.s.Params.P)
	i64(int64(sn.s.Params.Reps))
	f64(sn.s.Params.LogFactor)
	u8(true) // tree-index forest flag: every index is a forest; a stored 0 is corrupt
	u8(sn.repair != nil)
	var ri RepairInfo
	if sn.repair != nil {
		ri = *sn.repair
	}
	i64(int64(ri.Inserted))
	i64(int64(ri.Deleted))
	i64(int64(ri.Rechecked))
	return b
}

// decodedMeta is the unpacked secMeta record.
type decodedMeta struct {
	sn        Snapshot // scalar fields only
	params    shortcut.Params
	hasRepair bool
	repair    RepairInfo
}

func decodeMeta(b []byte) (dm decodedMeta, err error) {
	const op = "serve.decodeMeta"
	if len(b) != metaSize {
		return dm, reproerr.Errorf(op, reproerr.KindCorrupt, "meta record is %d bytes, want %d", len(b), metaSize)
	}
	i64 := func() int64 { v := int64(binary.LittleEndian.Uint64(b)); b = b[8:]; return v }
	f64 := func() float64 { v := math.Float64frombits(binary.LittleEndian.Uint64(b)); b = b[8:]; return v }
	i32 := func() int32 { v := int32(binary.LittleEndian.Uint32(b)); b = b[4:]; return v }
	u8 := func() (bool, error) {
		v := b[0]
		b = b[1:]
		if v > 1 {
			return false, reproerr.Errorf(op, reproerr.KindCorrupt, "flag byte %d not boolean", v)
		}
		return v == 1, nil
	}

	sn := &dm.sn
	sn.quality.Congestion = int(i64())
	sn.quality.DilationLo = i32()
	sn.quality.DilationHi = i32()
	if sn.quality.Exact, err = u8(); err != nil {
		return dm, err
	}
	sn.treeWeight = f64()
	sn.diameter = int(i64())
	sn.logFactor = f64()
	// A delta rebuilds the shortcuts with these two: a NaN log factor would
	// sample at probability NaN, and no parameters derive from a diameter
	// below 1. No build writes either; ±Inf is a valid log factor.
	if math.IsNaN(sn.logFactor) || sn.diameter < 1 {
		return dm, reproerr.Errorf(op, reproerr.KindCorrupt,
			"log factor %v, diameter %d: want a number and a diameter of at least 1", sn.logFactor, sn.diameter)
	}
	sn.dilationCutoff = int(i64())
	sn.phases = int(i64())
	sn.qualitySum = int(i64())
	sn.servRounds = int(i64())
	sn.servMessages = i64()
	sn.buildCost.Rounds = int(i64())
	sn.buildCost.Messages = i64()
	sn.buildCost.SchedStats.Rounds = int(i64())
	sn.buildCost.SchedStats.Messages = i64()
	sn.buildCost.SchedStats.MaxArcLoad = int(i64())
	sn.buildCost.SchedStats.MaxQueue = int(i64())
	i64() // retired slot (formerly sched.Stats.OrderedVisits)
	sn.buildCost.Wall = time.Duration(i64())
	dm.params.Diameter = int(i64())
	dm.params.KD = f64()
	dm.params.N = int(i64())
	dm.params.P = f64()
	dm.params.Reps = int(i64())
	dm.params.LogFactor = f64()
	forest, err := u8()
	if err != nil {
		return dm, err
	}
	if !forest {
		return dm, reproerr.Errorf(op, reproerr.KindCorrupt, "tree index flagged as not a forest")
	}
	if dm.hasRepair, err = u8(); err != nil {
		return dm, err
	}
	dm.repair.Inserted = int(i64())
	dm.repair.Deleted = int(i64())
	dm.repair.Rechecked = int(i64())
	return dm, nil
}

// WriteTo streams the snapshot to w in snapio container form, satisfying
// io.WriterTo. Sections are emitted directly from the snapshot's live arrays
// — ragged per-part lists go out as chunk sequences — so nothing is staged
// in an intermediate buffer. Wrap w in a bufio.Writer when writing to disk.
func (sn *Snapshot) WriteTo(w io.Writer) (int64, error) {
	sw, err := snapio.NewWriter(w, sn.generation, sn.samplingSeed)
	if err != nil {
		return 0, err
	}
	sec := func(id uint32, elem uint32, chunks ...[]byte) {
		if err == nil {
			err = sw.Section(id, elem, chunks...)
		}
	}
	i32 := func(id uint32, v []int32) { sec(id, 4, snapio.Int32Bytes(v)) }
	f64 := func(id uint32, v []float64) { sec(id, 8, snapio.Float64Bytes(v)) }

	c := sn.g.CSR()
	i32(secGraphOffsets, c.Offsets)
	i32(secGraphNeighbors, c.Neighbors)
	i32(secGraphArcEdge, c.ArcEdge)
	i32(secGraphArcRev, c.ArcRev)
	i32(secGraphArcTail, c.ArcTail)
	i32(secGraphEdgeU, c.EdgeU)
	i32(secGraphEdgeV, c.EdgeV)
	f64(secWeights, sn.w)

	np := sn.p.NumParts()
	i32(secPartOf, sn.p.PartOfTable())
	leaders := make([]int32, np)
	partOff := make([]int32, np+1)
	nodeChunks := make([][]byte, np)
	for i := 0; i < np; i++ {
		part := sn.p.Part(i)
		leaders[i] = part.Leader
		partOff[i+1] = partOff[i] + int32(len(part.Nodes))
		nodeChunks[i] = snapio.Int32Bytes(part.Nodes)
	}
	i32(secPartLeaders, leaders)
	i32(secPartOffsets, partOff)
	sec(secPartNodes, 4, nodeChunks...)

	hOff := make([]int32, np+1)
	hChunks := make([][]byte, np)
	for i := 0; i < np; i++ {
		var h []graph.EdgeID
		if i < len(sn.s.H) {
			h = sn.s.H[i]
		}
		hOff[i+1] = hOff[i] + int32(len(h))
		hChunks[i] = snapio.Int32Bytes(h)
	}
	i32(secShortcutOffsets, hOff)
	sec(secShortcutEdges, 4, hChunks...)

	pd := make([]int32, 4*len(sn.partDil))
	for i, q := range sn.partDil {
		pd[4*i] = int32(q.Congestion)
		pd[4*i+1] = q.DilationLo
		pd[4*i+2] = q.DilationHi
		if q.Exact {
			pd[4*i+3] = 1
		}
	}
	i32(secPartDil, pd)

	i32(secTree, sn.tree)

	sec(secMeta, 1, sn.metaBytes())
	if sn.repair != nil {
		touched := make([]int64, len(sn.repair.Touched))
		for i, t := range sn.repair.Touched {
			touched[i] = int64(t)
		}
		sec(secRepairTouched, 8, snapio.Int64Bytes(touched))
	}
	if err != nil {
		return 0, err
	}
	return sw.Finish()
}

// tempPrefix starts the name of every temporary file WriteSnapshotFile
// creates.
const tempPrefix = ".snap-"

// syncFile flushes f's contents to stable storage. Tests replace it to
// inject a failed sync.
var syncFile = (*os.File).Sync

// WriteSnapshotFile persists sn at path atomically and durably: the
// container streams into a temporary file in the same directory, which is
// synced and closed before it is renamed over path, and the directory is
// synced after the rename. A reader (or a replica's SwapFromFile) never
// observes a torn snapshot, and a crash cannot leave path naming a file
// whose data never reached the disk. A failure before the rename removes
// the temporary file and leaves path untouched; a failed directory sync
// is reported after path was already replaced.
func WriteSnapshotFile(path string, sn *Snapshot) error {
	const op = "serve.WriteSnapshotFile"
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return reproerr.Errorf(op, reproerr.KindUnknown, "create temp: %w", err)
	}
	renamed := false
	defer func() {
		if !renamed {
			tmp.Close() // a second Close after a failed one only reports ErrClosed
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if _, err := sn.WriteTo(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return reproerr.Errorf(op, reproerr.KindUnknown, "flush: %w", err)
	}
	if err := syncFile(tmp); err != nil {
		return reproerr.Errorf(op, reproerr.KindUnknown, "sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return reproerr.Errorf(op, reproerr.KindUnknown, "close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return reproerr.Errorf(op, reproerr.KindUnknown, "rename: %w", err)
	}
	renamed = true
	if runtime.GOOS == "windows" {
		return nil // Windows refuses to sync a directory handle
	}
	d, err := os.Open(dir)
	if err == nil {
		err = syncFile(d)
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return reproerr.Errorf(op, reproerr.KindUnknown, "sync directory: %w", err)
	}
	return nil
}

// StrayTemps lists, by path, the WriteSnapshotFile temporary files in dir:
// a writer that died between creating one and renaming it left it behind,
// or a live writer is still streaming into it. Nothing removes them, since
// only their writer can tell the two apart.
func StrayTemps(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tempPrefix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// LoadOptions configures LoadSnapshot / ReadSnapshot. The zero value is the
// default: mmap when the platform supports it, full verification.
type LoadOptions struct {
	// NoMmap forces the portable read-into-heap path even where mmap is
	// available (the loaded snapshot then needs no Close and survives the
	// file being deleted or rewritten).
	NoMmap bool
	// SkipVerify skips section checksums and the O(n+m) structural scans,
	// trusting the file — the fastest load, safe only for files this
	// process (or an equally trusted builder) just wrote. The tree index is
	// still derived from the stored tree edge list, as on every load, so
	// tree edges that are out of range or do not form a forest are still
	// rejected; any other corruption loaded with SkipVerify can panic or
	// serve wrong answers.
	SkipVerify bool
	// Metrics records load observability into the registry: load counts by
	// path (lcs_snapshot_load_total{path="mmap"|"heap"}), refused loads by
	// reproerr kind (lcs_snapshot_load_failures_total{kind="corrupt
	// artifact"|…}), bytes loaded, and checksum-verification time. nil =
	// uninstrumented (the default).
	Metrics *obs.Registry
}

// loadFailed counts a refused load in lcs_snapshot_load_failures_total,
// labelled by err's reproerr kind, when a registry is attached, and
// returns err.
func loadFailed(reg *obs.Registry, err error) error {
	if reg != nil {
		reg.Counter("lcs_snapshot_load_failures_total", "kind", reproerr.KindOf(err).String()).Inc()
	}
	return err
}

// LoadSnapshot opens a persisted snapshot. On the mmap path the snapshot's
// arrays alias the read-only file mapping: loading is O(sections) work
// regardless of graph size, the kernel pages data in on first touch, and
// the caller must keep the file unmodified and call Close when the snapshot
// (and every answer sharing its slices) is done. The heap path (NoMmap, or
// platforms without mmap) copies once and owns its memory.
func LoadSnapshot(path string, opts LoadOptions) (*Snapshot, error) {
	const op = "serve.LoadSnapshot"
	var (
		f   *snapio.File
		err error
	)
	if opts.NoMmap {
		f, err = snapio.OpenHeap(path)
	} else {
		f, err = snapio.Open(path)
	}
	if err != nil {
		return nil, loadFailed(opts.Metrics, err)
	}
	sn, err := snapshotFromFile(f, opts)
	if err != nil {
		f.Close()
		return nil, loadFailed(opts.Metrics, reproerr.Errorf(op, reproerr.KindOf(err), "%s: %w", path, err))
	}
	sn.backing = f
	return sn, nil
}

// ReadSnapshot decodes a snapshot from r into the heap (no mmap; the stream
// need not be a file). Same verification contract as LoadSnapshot.
func ReadSnapshot(r io.Reader, opts LoadOptions) (*Snapshot, error) {
	f, err := snapio.ReadFrom(r)
	if err != nil {
		return nil, loadFailed(opts.Metrics, err)
	}
	sn, err := snapshotFromFile(f, opts)
	if err != nil {
		return nil, loadFailed(opts.Metrics, err)
	}
	sn.backing = f
	return sn, nil
}

// Close releases the file mapping backing a snapshot returned by
// LoadSnapshot. It is nil-safe and idempotent, and a no-op for built or
// heap-loaded snapshots. After Close, the snapshot and every answer that
// aliases its slices (MST answers share the tree edge list) must not be
// touched — prefer Store.SwapFromFileCtx, which drains in-flight readers of
// the retired epoch before handing it back for closing.
func (sn *Snapshot) Close() error {
	if sn == nil || sn.backing == nil {
		return nil
	}
	b := sn.backing
	sn.backing = nil
	return b.Close()
}

// Mapped reports whether the snapshot serves directly out of a file mapping
// (true only for snapshots from LoadSnapshot's mmap path).
func (sn *Snapshot) Mapped() bool { return sn.backing != nil && sn.backing.Mapped() }

// snapshotFromFile assembles a Snapshot from a parsed container. Shape
// checks (lengths, brackets) always run — they are O(1) per section and
// keep even a trusted load panic-free on honest size mismatches — and so
// does sssp.NewTreeIndex, which derives the tree index from the stored
// tree edge list and checks every edge ID and endpoint the warm walks
// depend on. Unless opts.SkipVerify, it additionally verifies every section
// checksum and runs the deep O(n+m) structural scans that make arbitrary
// (fuzzed) bytes safe.
func snapshotFromFile(f *snapio.File, opts LoadOptions) (*Snapshot, error) {
	const op = "serve.LoadSnapshot"
	corrupt := func(format string, args ...any) error {
		return reproerr.Errorf(op, reproerr.KindCorrupt, format, args...)
	}
	verify := !opts.SkipVerify
	if verify {
		t0 := time.Now()
		if err := f.Verify(); err != nil {
			return nil, err
		}
		if opts.Metrics != nil {
			opts.Metrics.Histogram("lcs_snapshot_verify_ns").Observe(time.Since(t0).Nanoseconds())
		}
	}

	var err error
	i32 := func(id uint32) []int32 {
		if err != nil {
			return nil
		}
		s, serr := f.Section(id)
		if serr != nil {
			err = serr
			return nil
		}
		v, verr := s.Int32s()
		if verr != nil {
			err = verr
		}
		return v
	}
	f64 := func(id uint32) []float64 {
		if err != nil {
			return nil
		}
		s, serr := f.Section(id)
		if serr != nil {
			err = serr
			return nil
		}
		v, verr := s.Float64s()
		if verr != nil {
			err = verr
		}
		return v
	}

	c := graph.CSR{
		Offsets:   i32(secGraphOffsets),
		Neighbors: i32(secGraphNeighbors),
		ArcEdge:   i32(secGraphArcEdge),
		ArcRev:    i32(secGraphArcRev),
		ArcTail:   i32(secGraphArcTail),
		EdgeU:     i32(secGraphEdgeU),
		EdgeV:     i32(secGraphEdgeV),
	}
	if err != nil {
		return nil, err
	}
	g, gerr := graph.FromCSR(c, verify)
	if gerr != nil {
		return nil, corrupt("graph: %w", gerr)
	}
	m := g.NumEdges()

	w := graph.Weights(f64(secWeights))
	if err != nil {
		return nil, err
	}
	if len(w) != m {
		return nil, corrupt("weights: %d entries for %d edges", len(w), m)
	}
	if verify {
		if werr := w.Validate(g); werr != nil {
			return nil, corrupt("weights: %w", werr)
		}
	}

	partOf := i32(secPartOf)
	leaders := i32(secPartLeaders)
	partOff := i32(secPartOffsets)
	partNodes := i32(secPartNodes)
	if err != nil {
		return nil, err
	}
	np := len(leaders)
	if len(partOff) != np+1 || partOff[0] != 0 || int(partOff[np]) != len(partNodes) {
		return nil, corrupt("partition: offsets do not bracket %d nodes over %d parts", len(partNodes), np)
	}
	parts := make([]shortcut.Part, np)
	for i := 0; i < np; i++ {
		lo, hi := partOff[i], partOff[i+1]
		if lo > hi {
			return nil, corrupt("partition: part %d has negative extent", i)
		}
		parts[i] = shortcut.Part{Leader: leaders[i], Nodes: partNodes[lo:hi:hi]}
	}
	p, perr := shortcut.RawPartition(g, parts, partOf)
	if perr != nil {
		return nil, corrupt("partition: %w", perr)
	}
	if verify {
		if verr := verifyPartition(g, parts, partOf); verr != nil {
			return nil, verr
		}
	}

	hOff := i32(secShortcutOffsets)
	hEdges := i32(secShortcutEdges)
	if err != nil {
		return nil, err
	}
	if len(hOff) != np+1 || hOff[0] != 0 || int(hOff[np]) != len(hEdges) {
		return nil, corrupt("shortcuts: offsets do not bracket %d edges over %d parts", len(hEdges), np)
	}
	h := make([][]graph.EdgeID, np)
	for i := 0; i < np; i++ {
		lo, hi := hOff[i], hOff[i+1]
		if lo > hi {
			return nil, corrupt("shortcuts: part %d has negative extent", i)
		}
		if lo < hi {
			h[i] = hEdges[lo:hi:hi]
		}
	}
	if verify {
		for _, e := range hEdges {
			if e < 0 || int(e) >= m {
				return nil, corrupt("shortcuts: edge %d out of range [0,%d)", e, m)
			}
		}
	}

	pd := i32(secPartDil)
	if err != nil {
		return nil, err
	}
	if len(pd) != 4*np {
		return nil, corrupt("part dilations: %d values for %d parts", len(pd), np)
	}
	partDil := make([]shortcut.Quality, np)
	for i := range partDil {
		ex := pd[4*i+3]
		if verify && ex > 1 {
			return nil, corrupt("part dilations: part %d exact flag %d not boolean", i, ex)
		}
		partDil[i] = shortcut.Quality{
			Congestion: int(pd[4*i]),
			DilationLo: pd[4*i+1],
			DilationHi: pd[4*i+2],
			Exact:      ex == 1,
		}
	}

	tree := i32(secTree)
	metaSec, merr := f.Section(secMeta)
	if err == nil {
		err = merr
	}
	if err != nil {
		return nil, err
	}
	metaRaw, berr := metaSec.Bytes()
	if berr != nil {
		return nil, berr
	}
	dm, derr := decodeMeta(metaRaw)
	if derr != nil {
		return nil, derr
	}
	ti, tierr := sssp.NewTreeIndex(g, w, tree)
	if tierr != nil {
		return nil, corrupt("tree: %w", tierr)
	}

	hdr := f.Header()
	sn := dm.sn // scalar fields from meta
	sn.g = g
	sn.w = w
	sn.p = p
	sn.s = &shortcut.Shortcuts{P: p, H: h, Params: dm.params}
	sn.partDil = partDil
	sn.tree = tree
	sn.ti = ti
	sn.samplingSeed = hdr.Seed
	sn.generation = hdr.Generation
	if dm.hasRepair {
		touched64, trerr := repairTouched(f)
		if trerr != nil {
			return nil, trerr
		}
		ri := dm.repair
		ri.Touched = touched64
		sn.repair = &ri
	}
	if reg := opts.Metrics; reg != nil {
		path := "heap"
		if f.Mapped() {
			path = "mmap"
		}
		reg.Counter("lcs_snapshot_load_total", "path", path).Inc()
		reg.Counter("lcs_snapshot_load_bytes_total").Add(int64(f.Size()))
	}
	return &sn, nil
}

func repairTouched(f *snapio.File) ([]int, error) {
	s, err := f.Section(secRepairTouched)
	if err != nil {
		return nil, err
	}
	v, err := s.Int64s()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(v))
	for i, t := range v {
		out[i] = int(t)
	}
	return out, nil
}

// verifyPartition runs the deep partition scan: ranges, partOf/parts
// agreement (each listed node maps back to its part, every mapped node is
// listed exactly once), and max-ID leaders. Part connectivity is NOT
// re-derived — it costs a BFS per part and a snapshot only ever persists a
// validated partition; a corrupted node list fails the agreement check long
// before connectivity could matter.
func verifyPartition(g *graph.Graph, parts []shortcut.Part, partOf []int32) error {
	const op = "serve.LoadSnapshot"
	n := int32(g.NumNodes())
	listed := 0
	for i, part := range parts {
		if len(part.Nodes) == 0 {
			return reproerr.Errorf(op, reproerr.KindCorrupt, "partition: part %d is empty", i)
		}
		leader := part.Nodes[0]
		for _, v := range part.Nodes {
			if v < 0 || v >= n {
				return reproerr.Errorf(op, reproerr.KindCorrupt, "partition: part %d: node %d out of range", i, v)
			}
			if partOf[v] != int32(i) {
				return reproerr.Errorf(op, reproerr.KindCorrupt,
					"partition: node %d listed in part %d but mapped to %d", v, i, partOf[v])
			}
			if v > leader {
				leader = v
			}
		}
		if part.Leader != leader {
			return reproerr.Errorf(op, reproerr.KindCorrupt,
				"partition: part %d leader %d, max-ID node is %d", i, part.Leader, leader)
		}
		listed += len(part.Nodes)
	}
	mapped := 0
	for v, pi := range partOf {
		if pi < -1 || int(pi) >= len(parts) {
			return reproerr.Errorf(op, reproerr.KindCorrupt, "partition: node %d mapped to invalid part %d", v, pi)
		}
		if pi != -1 {
			mapped++
		}
	}
	if mapped != listed {
		// A node mapped to a part whose list omits it would otherwise slip
		// through (the per-list scan only checks listed nodes).
		return reproerr.Errorf(op, reproerr.KindCorrupt,
			"partition: %d nodes mapped to parts but %d listed", mapped, listed)
	}
	return nil
}

// SwapFromFile loads a persisted snapshot and swaps it in as the active
// epoch — the replica side of snapshot shipping: a builder node constructs
// (or repairs) once, WriteSnapshotFile publishes the bytes, and every
// replica pays only a load. A snapshot from the same build chain (equal
// sampling seed) with a generation not beyond the active one is rejected as
// stale, so replaying an old file cannot roll a replica back. Returns the
// retired snapshot and the new epoch number; the swap does not wait for the
// retired epoch to drain (see SwapFromFileCtx).
func (st *Store) SwapFromFile(path string, opts LoadOptions) (*Snapshot, uint64, error) {
	sn, err := st.loadNewer("serve.SwapFromFile", path, opts)
	if err != nil {
		return nil, 0, err
	}
	old, seq := st.Swap(sn)
	return old, seq, nil
}

// SwapFromFileCtx is SwapFromFile followed by a drain wait on the retired
// epoch: when it returns a nil error, no query is executing against the
// returned snapshot anymore, so the caller may Close it (releasing its file
// mapping) without racing an in-flight answer. The swap itself is immediate
// and unconditional; a canceled wait reports only that draining was still
// in progress.
func (st *Store) SwapFromFileCtx(ctx context.Context, path string, opts LoadOptions) (*Snapshot, error) {
	sn, err := st.loadNewer("serve.SwapFromFileCtx", path, opts)
	if err != nil {
		return nil, err
	}
	return st.SwapCtx(ctx, sn)
}

// loadNewer loads the snapshot file a swap ships in, refusing it as stale
// (KindInvalidInput, counted by the store's metrics) when it is from the
// active snapshot's build chain (equal sampling seed) with a generation not
// beyond the active one.
func (st *Store) loadNewer(op, path string, opts LoadOptions) (*Snapshot, error) {
	sn, err := LoadSnapshot(path, opts)
	if err != nil {
		return nil, err
	}
	cur := st.Snapshot()
	if cur != nil && cur.samplingSeed == sn.samplingSeed && sn.generation <= cur.generation {
		gen := sn.generation
		sn.Close()
		st.m.staleRejected()
		return nil, reproerr.Invalid(op,
			"stale snapshot: shipped generation %d, active generation %d (same chain, seed %#x)",
			gen, cur.generation, cur.samplingSeed)
	}
	return sn, nil
}
