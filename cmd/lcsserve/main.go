// Command lcsserve is the network query server: it boots a snapshot (a
// persisted .snap file, mmap'd by default, or a graphio text instance built
// into one at startup), wraps it in the gateway front end, and serves the
// five query kinds plus live deltas and snapshot shipping over HTTP/JSON.
//
// Usage:
//
//	lcsserve -snapshot-in state.snap [-listen :8080] [-admin-listen :9090]
//	lcsserve -graph-in inst.lcs -seed 42
//
// Endpoints (serving listener):
//
//	POST /v1/query          one typed query {"kind":"sssp","source":0}
//	POST /v1/batch          {"queries":[...]} — one batched execution
//	POST /v1/delta          edge mutations, applied + swapped in live
//	POST /v1/snapshot/swap  ship a persisted snapshot file into the epoch
//
// Admin listener: /metrics (Prometheus text, ?format=json for JSON),
// /healthz, /readyz (503 once draining). SIGTERM/SIGINT drains gracefully:
// readiness flips, in-flight requests finish (bounded by -drain), and the
// process exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "lcsserve:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: ready (if non-nil) receives the bound
// serving and admin addresses once both listeners accept.
func run(args []string, stdout io.Writer, ready func(listen, admin string)) error {
	fs := flag.NewFlagSet("lcsserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		snapIn     = fs.String("snapshot-in", "", "persisted snapshot file to serve (mmap'd unless -no-mmap)")
		graphIn    = fs.String("graph-in", "", "graphio text instance to build a snapshot from at startup")
		noMmap     = fs.Bool("no-mmap", false, "load the snapshot onto the heap instead of mmap")
		skipVerify = fs.Bool("skip-verify", false, "skip snapshot checksum/structure verification (trusted files only)")
		listen     = fs.String("listen", ":8080", "serving listener address")
		adminL     = fs.String("admin-listen", ":9090", "admin listener address (/metrics, /healthz, /readyz)")
		executors  = fs.Int("executors", 0, "executor pool size (0 = GOMAXPROCS)")
		queueDepth = fs.Int("queue-depth", 0, "admission capacity before shedding 429s (0 = 4x executors)")
		timeout    = fs.Duration("timeout", 0, "default per-request deadline when no Request-Timeout header (0 = none)")
		traceDepth = fs.Int("trace-depth", 0, "query trace-ring capacity (0 = default)")
		seed       = fs.Int64("seed", 1, "per-query determinism seed; also seeds -graph-in snapshot builds")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown bound for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*snapIn == "") == (*graphIn == "") {
		return errors.New("exactly one of -snapshot-in or -graph-in is required")
	}

	reg := obs.New()
	snap, err := bootSnapshot(*snapIn, *graphIn, *noMmap, *skipVerify, *seed, reg)
	if err != nil {
		return err
	}
	store := serve.NewStoreWith(snap, serve.StoreOptions{Metrics: reg})
	srv := serve.NewStoreServer(store, serve.ServerOptions{
		Executors:  *executors,
		Seed:       *seed,
		Metrics:    reg,
		TraceDepth: *traceDepth,
	})
	gw, err := gateway.New(srv, gateway.Options{
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		Metrics:        reg,
	})
	if err != nil {
		return err
	}

	serveLn, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	adminLn, err := net.Listen("tcp", *adminL)
	if err != nil {
		serveLn.Close()
		return err
	}
	httpSrv := &http.Server{Handler: gw.Handler()}
	adminSrv := &http.Server{Handler: gw.AdminHandler()}

	g := snap.Graph()
	fmt.Fprintf(stdout, "lcsserve: serving n=%d m=%d generation=%d on %s (admin %s)\n",
		g.NumNodes(), g.NumEdges(), snap.Generation(), serveLn.Addr(), adminLn.Addr())
	if ready != nil {
		ready(serveLn.Addr().String(), adminLn.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 2)
	go func() { errc <- httpSrv.Serve(serveLn) }()
	go func() { errc <- adminSrv.Serve(adminLn) }()

	select {
	case err := <-errc:
		// A listener died before any signal: tear the rest down.
		gw.Close()
		httpSrv.Close()
		adminSrv.Close()
		<-errc
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "lcsserve: draining (up to %v)\n", *drain)
	gw.Close() // readiness flips
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	errShutdown := httpSrv.Shutdown(shCtx)
	if err := adminSrv.Shutdown(shCtx); errShutdown == nil {
		errShutdown = err
	}
	// Collect the Serve results (http.ErrServerClosed on a clean drain).
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) && errShutdown == nil {
			errShutdown = err
		}
	}
	if snap.Mapped() {
		_ = snap.Close()
	}
	fmt.Fprintln(stdout, "lcsserve: drained")
	return errShutdown
}

// bootSnapshot resolves the boot state: load a persisted snapshot, or read
// a graphio instance and build one (uniform weights and a 16-cell Voronoi
// partition are derived from the seed when the file carries none).
func bootSnapshot(snapIn, graphIn string, noMmap, skipVerify bool, seed int64, reg *obs.Registry) (*serve.Snapshot, error) {
	if snapIn != "" {
		return serve.LoadSnapshot(snapIn, serve.LoadOptions{
			NoMmap:     noMmap,
			SkipVerify: skipVerify,
			Metrics:    reg,
		})
	}
	f, err := os.Open(graphIn)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := graphio.Read(f)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := doc.Weights
	if w == nil {
		w = graph.NewUniformWeights(doc.G.NumEdges(), rng)
	}
	parts := doc.Parts
	if parts == nil {
		if parts, err = gen.VoronoiParts(doc.G, 16, rng); err != nil {
			return nil, err
		}
	}
	return serve.NewSnapshot(doc.G, w, parts, serve.SnapshotOptions{Rng: rng})
}
