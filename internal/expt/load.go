package expt

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/twoecss"
)

// E17Load runs the open-loop load simulator (internal/load) against the
// serving stack: seeded Zipf/Poisson workloads over all five query kinds,
// optionally racing hot-swap updates, swept over offered rate × root skew ×
// update rate, against both the in-process library backend and the full wire
// path (gateway + HTTP on a loopback listener). Unlike E14's closed loop —
// which can only measure how fast the server answers back-to-back queries —
// the open loop measures what clients at a fixed offered rate experience,
// including queueing delay, admission shed, and the latency cost of epoch
// swaps, free of coordinated omission (latency is charged from each query's
// scheduled arrival).
//
// Every delivered sssp/mst answer is also attributed to a snapshot
// generation; a non-zero "torn" count means some answer mixed state from two
// epochs, the failure the epoch protocol exists to prevent.
func E17Load(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E17: open-loop load (Zipf/Poisson arrivals, racing hot swaps)",
		"backend", "rate", "zipf", "upd/s", "offered", "delivered", "shed", "ovfl", "failed",
		"gens", "torn", "p50 ms", "p99 ms", "p999 ms", "max ms", "qwait p99 ms")

	// The mix exercises twoecss, so the fixture must be 2-edge-connected:
	// the E13/gateway ER idiom, retried until bridge-free. Scheduled updates
	// only ever insert edges, which cannot create bridges.
	n := cfg.DistSizes[len(cfg.DistSizes)-1]
	rng := cfg.rng(18_000_000_000)
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, math.Max(0.01, 8/float64(n)), rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdgeIDs(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, minInt(64, maxInt(4, n/64)), rng)
	if err != nil {
		return nil, fmt.Errorf("E17: %w", err)
	}
	buildStart := time.Now()
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{
		Rng: rng, LogFactor: cfg.LogFactor, Workers: cfg.Workers, Ctx: cfg.Ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("E17: snapshot: %w", err)
	}
	buildTime := time.Since(buildStart)

	executors := cfg.ServeExecutors[len(cfg.ServeExecutors)-1]
	addRow := func(res *load.Result, rate, zipf, ur float64) {
		gens, torn := "-", "-"
		if res.TornChecked {
			gens, torn = I(res.Generations), I(res.Torn)
		}
		ms := func(v int64) string { return F(float64(v) / float64(time.Millisecond)) }
		t.AddRow(res.Backend, F(rate), F(zipf), F(ur),
			I(res.Offered), I(int(res.Delivered)), I(int(res.Shed)), I(res.Overflow),
			I(int(res.Failed+res.DeadlineExceeded+res.Canceled)),
			gens, torn,
			ms(res.Latency.Quantile(0.5)), ms(res.Latency.Quantile(0.99)),
			ms(res.Latency.Quantile(0.999)), ms(res.Latency.Max),
			ms(res.QueueWait.Quantile(0.99)))
	}

	// runScenario executes one pre-drawn schedule against one backend,
	// starting from a fresh store at the base snapshot so every run races
	// the identical generation chain.
	runScenario := func(sched *load.Schedule, wire bool) (*load.Result, error) {
		store := serve.NewStore(snap)
		srv := serve.NewStoreServer(store, serve.ServerOptions{
			Executors: executors, Seed: cfg.Seed, Metrics: cfg.Metrics,
		})
		var backend load.Backend
		if wire {
			// The full wire path on a loopback listener: gateway admission
			// and codec included, so the two backends differ only by the
			// wire itself.
			gw, err := gateway.New(srv, gateway.Options{
				QueueDepth: 4 * sched.Params.MaxInFlight, Metrics: cfg.Metrics,
			})
			if err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				gw.Close()
				return nil, err
			}
			hs := &http.Server{Handler: gw.Handler()}
			go hs.Serve(ln)
			defer func() {
				hs.Close()
				gw.Close()
			}()
			backend = load.NewWireBackend(ln.Addr().String(), nil)
		} else {
			backend = &load.LibraryBackend{Srv: srv}
		}
		r := &load.Runner{Schedule: sched, Backend: backend, Store: store}
		return r.Run(cfg.ctx())
	}

	totalChecked, totalTorn, scenarios := 0, 0, 0
	for _, rate := range cfg.LoadRates {
		for _, zipf := range cfg.LoadZipfs {
			for _, ur := range cfg.LoadUpdateRates {
				scenarios++
				p := load.Params{
					Rate: rate, Duration: cfg.LoadDuration, Zipf: zipf,
					UpdateRate: ur, Seed: cfg.Seed*1_000_003 + int64(scenarios),
				}
				// One schedule per scenario: both backends replay the
				// identical pre-drawn workload (the determinism contract).
				sched, err := load.BuildSchedule(p, snap)
				if err != nil {
					return nil, fmt.Errorf("E17 rate=%v zipf=%v upd=%v: %w", rate, zipf, ur, err)
				}
				for _, wire := range []bool{false, true} {
					res, err := runScenario(sched, wire)
					if err != nil {
						return nil, fmt.Errorf("E17 rate=%v zipf=%v upd=%v wire=%v: %w", rate, zipf, ur, wire, err)
					}
					addRow(res, rate, zipf, ur)
					totalChecked += res.Checked
					totalTorn += res.Torn
				}
			}
		}
	}

	// External wire rows: the same workloads POSTed at a running lcsserve.
	// The remote owns its snapshot, so there is no swap surface to race or
	// verify against — update rate is forced to 0 and the torn check is off.
	// The schedule's roots index the LOCAL fixture, so the remote must serve
	// a snapshot of the same size (start lcsserve from this run's
	// -snapshot-out, or any equal-n build).
	if cfg.ServeAddr != "" {
		wireN, err := probeWireN(cfg.ctx(), cfg.ServeAddr)
		if err != nil {
			return nil, fmt.Errorf("E17: -serve-addr %s: %w", cfg.ServeAddr, err)
		}
		if wireN != n {
			return nil, fmt.Errorf("E17: -serve-addr %s serves n=%d but the schedule targets n=%d; serve the same snapshot", cfg.ServeAddr, wireN, n)
		}
		backend := load.NewWireBackend(cfg.ServeAddr, nil)
		for _, rate := range cfg.LoadRates {
			for _, zipf := range cfg.LoadZipfs {
				scenarios++
				p := load.Params{
					Rate: rate, Duration: cfg.LoadDuration, Zipf: zipf,
					Seed: cfg.Seed*1_000_003 + int64(scenarios),
				}
				sched, err := load.BuildSchedule(p, snap)
				if err != nil {
					return nil, fmt.Errorf("E17 external rate=%v zipf=%v: %w", rate, zipf, err)
				}
				r := &load.Runner{Schedule: sched, Backend: backend}
				res, err := r.Run(cfg.ctx())
				if err != nil {
					return nil, fmt.Errorf("E17 external rate=%v zipf=%v: %w", rate, zipf, err)
				}
				res.Backend = "wire-ext"
				addRow(res, rate, zipf, 0)
			}
		}
	}

	t.AddNote("open loop: arrivals fire on a pre-drawn Poisson schedule regardless of outstanding work; latency is charged from the scheduled arrival (no coordinated omission)")
	t.AddNote("torn: delivered sssp/mst answers attributed to no snapshot generation — must be 0; '-' marks runs without a local swap surface to verify against")
	t.AddNote("same seed ⇒ identical schedule for every backend; library and wire rows of one scenario replay the same workload")
	t.AddNote("fixture: bridge-free ER n=%d (the mix exercises twoecss), snapshot built in %s",
		n, buildTime.Round(time.Millisecond))
	t.SetMeta("scenarios", scenarios)
	t.SetMeta("torn_total", totalTorn)
	t.SetMeta("torn_checked", totalChecked)
	t.SetMeta("duration_s", cfg.LoadDuration.Seconds())
	t.SetMeta("executors", executors)
	if totalTorn > 0 {
		return nil, fmt.Errorf("E17: %d of %d checked answers torn (table retained: %d rows)", totalTorn, totalChecked, len(t.Rows))
	}
	return t, nil
}
