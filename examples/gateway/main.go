// Gateway: put the serving stack on the network. One process builds a
// Snapshot, wraps a store-backed Server in repro.NewGateway, and serves the
// wire surface lcsserve deploys — POST /v1/query, /v1/batch, /v1/delta on
// the serving listener, /metrics + /healthz + /readyz on the admin listener
// — then this same process plays the client: wire queries, an error mapped
// through the taxonomy's HTTP table, a delta applied over HTTP under live
// traffic, and a metrics scrape.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strings"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(1))

	// Build once; serve forever. Same construction as examples/serving.
	const diameter = 6
	g, err := repro.ClusterChain(4000, diameter, rng)
	if err != nil {
		return err
	}
	parts, err := repro.VoronoiParts(g, 32, rng)
	if err != nil {
		return err
	}
	snap, err := repro.NewSnapshotCtx(context.Background(), g, repro.UniformWeights(g, rng), parts,
		repro.WithSeed(1), repro.WithDiameter(diameter))
	if err != nil {
		return err
	}

	// Store-backed server + gateway on one shared registry: /v1/delta can
	// hot-swap under traffic, and /metrics exposes both the gateway's
	// instrument family (admission, shedding) and the serving layer's
	// (per-kind latency, executor utilization).
	reg := repro.NewMetrics()
	store, err := repro.NewStoreV2(snap, repro.WithMetrics(reg))
	if err != nil {
		return err
	}
	srv, err := repro.NewStoreServerV2(store, repro.WithExecutors(4), repro.WithMetrics(reg))
	if err != nil {
		return err
	}
	gw, err := repro.NewGateway(srv,
		repro.WithQueueDepth(64), // admission slots; overflow sheds 429
		repro.WithMetrics(reg))
	if err != nil {
		return err
	}
	defer gw.Close()

	serveLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveSrv := &http.Server{Handler: gw.Handler()}
	adminSrv := &http.Server{Handler: gw.AdminHandler()}
	go serveSrv.Serve(serveLn)
	go adminSrv.Serve(adminLn)
	defer serveSrv.Close()
	defer adminSrv.Close()
	base := "http://" + serveLn.Addr().String()
	admin := "http://" + adminLn.Addr().String()
	fmt.Printf("gateway: serving on %s (admin %s)\n", serveLn.Addr(), adminLn.Addr())

	// A wire query: kinds are "sssp" | "mst" | "mincut" | "twoecss" |
	// "quality"; sssp distances come back as JSON numbers with null for
	// unreachable (+Inf), bit-exact on round-trip.
	status, body, err := post(base+"/v1/query", `{"kind":"mst"}`)
	if err != nil {
		return err
	}
	fmt.Printf("query: mst -> %d, %d bytes\n", status, len(body))

	// Taxonomy errors map onto statuses via repro.HTTPStatus: invalid input
	// 400, shed 429, canceled 499, deadline 504. The body names the kind.
	status, body, err = post(base+"/v1/query", `{"kind":"nope"}`)
	if err != nil {
		return err
	}
	fmt.Printf("query: unknown kind -> %d %s\n", status, strings.TrimSpace(body))

	// A delta over the wire: seeded rebuild + hot swap, one request.
	// Queries racing this swap keep their pinned epoch — no torn answers.
	status, body, err = post(base+"/v1/delta", `{"insert":[{"u":5,"v":3777,"w":0.01}]}`)
	if err != nil {
		return err
	}
	fmt.Printf("delta: -> %d %s\n", status, strings.TrimSpace(body))

	// The admin mux: readiness for load balancers, Prometheus exposition
	// for scrapes.
	resp, err := http.Get(admin + "/metrics")
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "lcs_gateway_requests_total") ||
			strings.HasPrefix(line, "lcs_store_swaps_total") {
			fmt.Printf("metrics: %s\n", line)
		}
	}
	return nil
}

func post(url, body string) (int, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(raw), nil
}
