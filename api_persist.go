package repro

import (
	"context"
	"io"

	"repro/internal/reproerr"
	"repro/internal/serve"
)

// Snapshot persistence: zero-copy save/load of serving state.
//
// A Snapshot built by NewSnapshotCtx (a cold construction dominated by
// measuring every part's dilation, and by the simulated CONGEST MST when
// WithDistributedAccounting is on) can be persisted once and reopened in
// milliseconds, its recorded simulated cost included: SaveSnapshot streams
// every section of the serving state — graph CSR and weights, partition,
// shortcut assignment, per-part quality cache, derived MST edge list — into
// a versioned, checksummed, 64-byte-aligned container, and LoadSnapshotCtx
// mmaps the file and rebuilds the Snapshot by slicing the mapping, with zero
// parse of the bulk arrays; only the tree's O(n) query index is derived
// again, from the MST edge list. A loaded snapshot answers
// every query family bit-identically to the one that was saved, including
// continuing a delta chain: ApplyDeltaCtx on a loaded snapshot equals
// ApplyDeltaCtx on the original.
//
// The file carries the snapshot's generation (its position in the delta
// chain) and sampling seed, so a builder node can construct or repair once
// and ship bytes to replicas, which swap them under live traffic with
// SwapSnapshotFromFileCtx — stale or replayed files (same seed, generation
// not newer than the serving snapshot's) are rejected without disturbing
// the current epoch.
//
// A mmap-backed Snapshot keeps the file mapping alive until Close; the
// mapping is read-only, so the snapshot's immutability guarantees carry
// over. Close is safe on any snapshot (built ones are no-ops) and must not
// race in-flight queries — retire the snapshot from its Store first.

// SaveSnapshot writes snap to path in the versioned binary snapshot format,
// atomically and durably: the bytes stream through a temp file in path's
// directory, which is synced before it is renamed into place, and the
// directory is synced after, so a crashed save never leaves a torn file
// where a replica might load it. No options apply.
func SaveSnapshot(path string, snap *Snapshot) error {
	return serve.WriteSnapshotFile(path, snap)
}

// WriteSnapshot streams snap's persistent form to w (the io.WriterTo form
// of SaveSnapshot, for callers shipping bytes over a socket rather than
// through a file).
func WriteSnapshot(w io.Writer, snap *Snapshot) (int64, error) {
	return snap.WriteTo(w)
}

// LoadSnapshot opens a persisted snapshot from path: mmap by default
// (WithMmap(false) forces the portable heap read), with full checksum and
// structural verification by default (WithSnapshotVerify(false) skips the
// deep scans for trusted artifacts — corrupt bytes then surface as wrong
// answers, not errors). Rejections are *Error: KindCorrupt for damaged
// bytes, KindInvalidInput for version/shape mismatches. Close the returned
// snapshot to release the mapping.
func LoadSnapshot(path string, opts ...Option) (*Snapshot, error) {
	return LoadSnapshotCtx(context.Background(), path, opts...)
}

// LoadSnapshotCtx is LoadSnapshot under ctx. The open itself is
// milliseconds-scale; ctx is checked before the open and again before the
// (O(n+m) when verifying) assembly returns, so a canceled load never hands
// back a snapshot.
func LoadSnapshotCtx(ctx context.Context, path string, opts ...Option) (*Snapshot, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	if err := reproerr.CtxCheck("repro.LoadSnapshot", ctx); err != nil {
		return nil, err
	}
	sn, err := serve.LoadSnapshot(path, cfg.loadOptions())
	if err != nil {
		return nil, err
	}
	if err := reproerr.CtxCheck("repro.LoadSnapshot", ctx); err != nil {
		sn.Close()
		return nil, err
	}
	return sn, nil
}

// ReadSnapshot decodes a persisted snapshot from a byte stream (the
// shipped-bytes counterpart of LoadSnapshotCtx; no mmap, WithSnapshotVerify
// applies).
func ReadSnapshot(r io.Reader, opts ...Option) (*Snapshot, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return serve.ReadSnapshot(r, cfg.loadOptions())
}

// SwapSnapshotFromFileCtx loads a persisted snapshot from path and hot-swaps
// it into store under live traffic — the replica side of the builder-ships-
// bytes protocol. The load is rejected (KindInvalidInput, store untouched)
// when the file is stale: same sampling seed as the serving snapshot but a
// generation that is not newer, which catches replayed and out-of-order
// ships. On a nil error the returned retired snapshot has fully drained —
// no query is executing against it anymore — so the caller may Close it to
// release its mapping. (Store.SwapFromFile is the non-draining form.)
func SwapSnapshotFromFileCtx(ctx context.Context, store *Store, path string, opts ...Option) (retired *Snapshot, err error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return store.SwapFromFileCtx(ctx, path, cfg.loadOptions())
}

func (c *Config) loadOptions() serve.LoadOptions {
	return serve.LoadOptions{NoMmap: c.NoMmap, SkipVerify: c.SkipSnapshotVerify, Metrics: c.Metrics}
}
