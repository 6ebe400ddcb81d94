package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// E16Persistence measures snapshot persistence — the cold-start story: the
// multi-second NewSnapshot construction versus reopening its persisted bytes.
// For each n it builds the E14 serving instance as E14 builds it, with the
// simulated shortcut-MST's accounting (so a -snapshot-out file feeds E14's
// -snapshot-in with the same cost record), writes the snapshot with
// WriteSnapshotFile, and times three reopen paths — mmap with full
// verification (the default), the portable heap read, and mmap with
// verification skipped (the trusted fast path) — plus the first query served
// off the mapping, checked bit-identical against the built snapshot. The
// speedup column is build time over default mmap load: the factor a replica
// gains by shipping bytes instead of rebuilding an accounted snapshot.
func E16Persistence(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E16: snapshot persistence (zero-copy mmap cold start)",
		"n", "m", "build s", "write ms", "file MB",
		"load mmap ms", "load heap ms", "load noverify ms", "first query ms", "speedup")
	dir, err := os.MkdirTemp("", "lcsnap-e16-*")
	if err != nil {
		return nil, fmt.Errorf("E16: %w", err)
	}
	defer os.RemoveAll(dir)

	for i, n := range cfg.PersistSizes {
		rng := cfg.rng(int64(18_000_000_000 + i))
		g, err := gen.ClusterChain(n, 6, rng)
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: %w", n, err)
		}
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		parts, err := gen.VoronoiParts(g, minInt(64, maxInt(4, n/64)), rng)
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: %w", n, err)
		}
		buildStart := time.Now()
		snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
			Rng: rng, Diameter: 6, LogFactor: cfg.LogFactor, Distributed: true, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: snapshot: %w", n, err)
		}
		buildTime := time.Since(buildStart)
		want, err := serve.NewServer(snap, serve.ServerOptions{Executors: 1, Seed: cfg.Seed}).
			Serve(serve.SSSPQuery{Source: 0})
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: reference query: %w", n, err)
		}

		path := filepath.Join(dir, fmt.Sprintf("snap-%d.lcsnap", n))
		if cfg.SnapshotOut != "" && i == len(cfg.PersistSizes)-1 {
			path = cfg.SnapshotOut
		}
		writeStart := time.Now()
		if err := serve.WriteSnapshotFile(path, snap); err != nil {
			return nil, fmt.Errorf("E16 n=%d: write: %w", n, err)
		}
		writeTime := time.Since(writeStart)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: %w", n, err)
		}

		// Default mmap load, kept open for the first-query measurement.
		loadStart := time.Now()
		loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{})
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: load: %w", n, err)
		}
		loadMmap := time.Since(loadStart)
		queryStart := time.Now()
		got, err := serve.NewServer(loaded, serve.ServerOptions{Executors: 1, Seed: cfg.Seed}).
			Serve(serve.SSSPQuery{Source: 0})
		if err != nil {
			loaded.Close()
			return nil, fmt.Errorf("E16 n=%d: loaded query: %w", n, err)
		}
		firstQuery := time.Since(queryStart)
		identical := reflect.DeepEqual(got, want)
		loaded.Close()
		if !identical {
			return nil, fmt.Errorf("E16 n=%d: loaded snapshot answer differs from built", n)
		}

		timeLoad := func(opts serve.LoadOptions) (time.Duration, error) {
			start := time.Now()
			sn, err := serve.LoadSnapshot(path, opts)
			if err != nil {
				return 0, err
			}
			d := time.Since(start)
			return d, sn.Close()
		}
		loadHeap, err := timeLoad(serve.LoadOptions{NoMmap: true})
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: heap load: %w", n, err)
		}
		loadFast, err := timeLoad(serve.LoadOptions{SkipVerify: true})
		if err != nil {
			return nil, fmt.Errorf("E16 n=%d: noverify load: %w", n, err)
		}

		t.AddRow(I(n), I(g.NumEdges()),
			F(buildTime.Seconds()),
			F(float64(writeTime)/float64(time.Millisecond)),
			F(float64(fi.Size())/(1024*1024)),
			F(float64(loadMmap)/float64(time.Millisecond)),
			F(float64(loadHeap)/float64(time.Millisecond)),
			F(float64(loadFast)/float64(time.Millisecond)),
			F(float64(firstQuery)/float64(time.Millisecond)),
			F(float64(buildTime)/float64(loadMmap)))
		t.SetMeta(fmt.Sprintf("n%d_build_ms", n), float64(buildTime)/float64(time.Millisecond))
		t.SetMeta(fmt.Sprintf("n%d_load_mmap_ms", n), float64(loadMmap)/float64(time.Millisecond))
	}
	t.AddNote("load mmap is the default (checksums + deep structural verification); noverify skips both but still derives the tree index from the stored tree edge list")
	t.AddNote("first query on the loaded mapping verified bit-identical to the built snapshot")
	t.AddNote("speedup = build s / load mmap ms: the cold-start factor a replica gains by shipping bytes; the build includes the simulated shortcut-MST (accounting on), which a default build skips")
	return t, nil
}
