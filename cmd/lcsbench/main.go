// Command lcsbench regenerates every experiment in EXPERIMENTS.md: the
// quality, round, congestion, dilation, message, scheduling, and
// application measurements that operationalize the paper's claims.
//
// Usage:
//
//	lcsbench [flags] <experiment>
//
// where <experiment> is one of: quality (E1), rounds (E2), congestion (E3),
// dilation (E4), baselines (E5), mst (E6), mincut (E7), messages (E8),
// oddeven (E9), sched (E10), walks (E11), sssp (E12), twoecss (E13),
// ablation (A1+A2), or all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/reproerr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lcsbench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	name  string
	id    string
	brief string
	run   func(expt.Config) (*expt.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"quality", "E1", "shortcut quality c+d vs n (Theorem 1.1)", expt.E1Quality},
		{"rounds", "E2", "distributed construction rounds (Theorem 1.1)", expt.E2Rounds},
		{"congestion", "E3", "edge congestion vs Chernoff bound (Section 2)", expt.E3Congestion},
		{"dilation", "E4", "dilation vs O(kD log n) (Theorem 3.1)", expt.E4Dilation},
		{"baselines", "E5", "ours vs GH16 vs trivial (crossover)", expt.E5Baselines},
		{"mst", "E6", "distributed MST rounds (Corollary 1.2)", expt.E6MST},
		{"mincut", "E7", "approximate min cut (Corollary 1.2)", expt.E7MinCut},
		{"messages", "E8", "message complexity vs m*kD (Section 1)", expt.E8Messages},
		{"oddeven", "E9", "odd vs even diameter handling (Section 3.2)", expt.E9OddEven},
		{"sched", "E10", "random-delay scheduling (Theorem 2.1)", expt.E10Scheduler},
		{"walks", "E11", "(i,k)-walk lengths (Lemma 3.3)", expt.E11Walks},
		{"sssp", "E12", "approximate SSSP (Corollary 4.2)", expt.E12SSSP},
		{"twoecss", "E13", "2-ECSS approximation (Corollary 4.3)", expt.E13TwoECSS},
		{"serving", "E14", "serving layer throughput (snapshot + pooled executors)", expt.E14Serving},
		{"dynamic", "E15", "incremental update latency vs delta size (derived shortcuts, touched parts re-measured)", expt.E15Dynamic},
		{"persistence", "E16", "snapshot persistence: zero-copy mmap cold start", expt.E16Persistence},
		{"load", "E17", "open-loop load: Zipf/Poisson arrivals racing hot swaps", expt.E17Load},
		{"ablation-reps", "A1", "sampling repetitions ablation", expt.A1Repetitions},
		{"ablation-sched", "A2", "random-delay ablation", expt.A2Scheduling},
		{"ablation-det", "A4", "deterministic construction (open end)", expt.A4Deterministic},
		{"ablation-local", "A5", "locality-restricted sampling (open end)", expt.A5Local},
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lcsbench", flag.ContinueOnError)
	var (
		sizes     = fs.String("sizes", "", "comma-separated n sweep (default per config)")
		distSizes = fs.String("dist-sizes", "", "comma-separated n sweep for simulated experiments")
		diameters = fs.String("diameters", "", "comma-separated D sweep")
		seed      = fs.Int64("seed", 42, "random seed")
		logFactor = fs.Float64("logfactor", 0.3, "sampling probability log-term scale")
		quick     = fs.Bool("quick", false, "reduced sweeps")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut   = fs.Bool("json", false, "emit all tables as a JSON array (overrides -csv)")
		benchOut  = fs.String("bench-out", "", "append the run envelope + tables as a trajectory entry to this JSON file (e.g. BENCH_serving.json for -serve runs); repeated runs accumulate a performance history; stdout keeps its text/CSV/JSON form")
		benchTag  = fs.String("bench-tag", "", "tag recorded on the -bench-out trajectory entry (a PR number, commit, or machine name)")

		metricsOut = fs.String("metrics-out", "", "instrument the run with an observability registry and write its JSON snapshot (per-kind latency quantiles, coalescing and epoch-swap counters, query traces) to this file; the snapshot is also folded into the -json/-bench-out envelope under run.metrics")

		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit); exercises the library's context-first cancellation end-to-end")

		serveRun   = fs.Bool("serve", false, "run the E14 serving sweep (no positional experiment needed)")
		serveQ     = fs.Int("serve-queries", 0, "warm queries per E14 sweep point (0 = default)")
		serveExecs = fs.String("serve-executors", "", "comma-separated executor-pool sizes for E14")
		serveBatch = fs.String("serve-batches", "", "comma-separated batch sizes for E14")
		serveAddr  = fs.String("serve-addr", "", "host:port of a running lcsserve; E14 additionally drives it over HTTP and records wire-vs-library overhead")

		deltaSizes = fs.String("delta", "", "comma-separated delta-size sweep for the E15 dynamic-update experiment (implies 'dynamic' when no experiment is named)")

		snapshotOut  = fs.String("snapshot-out", "", "persist the built snapshot to this file (E14 after its build; E16 for its largest size), so later runs can -snapshot-in it")
		snapshotIn   = fs.String("snapshot-in", "", "load the E14 serving snapshot from this file instead of building it (implies 'serving' when no experiment is named)")
		persistSizes = fs.String("persist-sizes", "", "comma-separated n sweep for the E16 persistence experiment (implies 'persistence' when no experiment is named)")

		loadRun      = fs.Bool("load", false, "run the E17 open-loop load experiment (no positional experiment needed)")
		loadRates    = fs.String("load-rate", "", "comma-separated offered rates (queries/second) for E17")
		loadZipfs    = fs.String("load-zipf", "", "comma-separated Zipf root-skew exponents for E17 (values ≤ 1 draw uniformly)")
		loadUpdates  = fs.String("load-update-rate", "", "comma-separated hot-swap rates (swaps/second) for E17; include 0 for a static-snapshot row")
		loadDuration = fs.Duration("load-duration", 0, "open-loop horizon of each E17 scenario (0 = default)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lcsbench [flags] <experiment>")
		fmt.Fprintln(fs.Output(), "experiments:")
		for _, e := range experiments() {
			fmt.Fprintf(fs.Output(), "  %-16s %-4s %s\n", e.name, e.id, e.brief)
		}
		fmt.Fprintln(fs.Output(), "  ablation              A1+A2")
		fmt.Fprintln(fs.Output(), "  all                   every experiment")
		fmt.Fprintln(fs.Output(), "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	target := ""
	switch {
	case fs.NArg() == 1:
		target = fs.Arg(0)
	case fs.NArg() == 0 && *serveRun:
		target = "serving"
	case fs.NArg() == 0 && *deltaSizes != "":
		target = "dynamic"
	case fs.NArg() == 0 && *snapshotIn != "":
		target = "serving"
	case fs.NArg() == 0 && *serveAddr != "":
		target = "serving"
	case fs.NArg() == 0 && *persistSizes != "":
		target = "persistence"
	case fs.NArg() == 0 && *loadRun:
		target = "load"
	default:
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name (or -serve / -delta)")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := expt.Config{
		Seed:         *seed,
		LogFactor:    *logFactor,
		Quick:        *quick,
		ServeQueries: *serveQ,
		ServeAddr:    *serveAddr,
		SnapshotIn:   *snapshotIn,
		SnapshotOut:  *snapshotOut,
		LoadDuration: *loadDuration,
		Ctx:          ctx,
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
		cfg.Metrics = reg
	}
	var err error
	if cfg.Sizes, err = parseInts(*sizes); err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	if cfg.DistSizes, err = parseInts(*distSizes); err != nil {
		return fmt.Errorf("-dist-sizes: %w", err)
	}
	if cfg.Diameters, err = parseInts(*diameters); err != nil {
		return fmt.Errorf("-diameters: %w", err)
	}
	if cfg.ServeExecutors, err = parseInts(*serveExecs); err != nil {
		return fmt.Errorf("-serve-executors: %w", err)
	}
	if cfg.ServeBatches, err = parseInts(*serveBatch); err != nil {
		return fmt.Errorf("-serve-batches: %w", err)
	}
	if cfg.DeltaSizes, err = parseInts(*deltaSizes); err != nil {
		return fmt.Errorf("-delta: %w", err)
	}
	if cfg.PersistSizes, err = parseInts(*persistSizes); err != nil {
		return fmt.Errorf("-persist-sizes: %w", err)
	}
	if cfg.LoadRates, err = parseFloats(*loadRates); err != nil {
		return fmt.Errorf("-load-rate: %w", err)
	}
	if cfg.LoadZipfs, err = parseFloats(*loadZipfs); err != nil {
		return fmt.Errorf("-load-zipf: %w", err)
	}
	if cfg.LoadUpdateRates, err = parseFloats(*loadUpdates); err != nil {
		return fmt.Errorf("-load-update-rate: %w", err)
	}

	var selected []experiment
	switch target {
	case "all":
		selected = experiments()
	case "ablation":
		for _, e := range experiments() {
			if strings.HasPrefix(e.name, "ablation") {
				selected = append(selected, e)
			}
		}
	default:
		for _, e := range experiments() {
			if e.name == target || e.id == target || strings.EqualFold(e.id, target) {
				selected = append(selected, e)
			}
		}
	}
	if len(selected) == 0 {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", target)
	}
	if *serveRun && target != "serving" {
		found := false
		for _, e := range selected {
			found = found || e.name == "serving"
		}
		if !found {
			for _, e := range experiments() {
				if e.name == "serving" {
					selected = append(selected, e)
				}
			}
		}
	}
	if *loadRun && target != "load" {
		found := false
		for _, e := range selected {
			found = found || e.name == "load"
		}
		if !found {
			for _, e := range experiments() {
				if e.name == "load" {
					selected = append(selected, e)
				}
			}
		}
	}
	start := time.Now()
	info := expt.RunInfo{Seed: cfg.Seed}
	var tables []*expt.Table
	for _, e := range selected {
		tbl, err := e.run(cfg)
		if err != nil {
			// A -timeout abort surfaces as the library's canceled/deadline
			// taxonomy; -json reports it (plus the partial cost and the
			// tables that completed) instead of failing the process.
			if kind := reproerr.KindOf(err); (*jsonOut || *benchOut != "") &&
				(kind == reproerr.KindCanceled || kind == reproerr.KindDeadline ||
					errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				info.Canceled = true
				info.Error = fmt.Sprintf("%s: %v", e.name, err)
				break
			}
			return fmt.Errorf("%s: %w", e.name, err)
		}
		tables = append(tables, tbl)
		if *jsonOut {
			continue
		}
		if *csv {
			tbl.CSV(stdout)
		} else {
			tbl.Fprint(stdout)
		}
	}
	info.Cost = &cost.Cost{Wall: time.Since(start)}
	if reg != nil {
		snap := reg.Snapshot()
		info.Metrics = &snap
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("-metrics-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
	}
	if *benchOut != "" {
		if err := expt.AppendJSON(*benchOut, *benchTag, info, tables); err != nil {
			return fmt.Errorf("-bench-out: %w", err)
		}
	}
	if *jsonOut {
		return expt.WriteJSON(stdout, info, tables)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
