package expt

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// TestE14WireMode points the E14 sweep at a live gateway (the lcsbench
// -serve-addr shape) and requires wire rows next to the library rows, with
// the overhead note and meta recorded. The gateway's sssp cache keeps a
// source's body on its second miss, so over three client configurations
// the cache must never answer: every row times a walk.
func TestE14WireMode(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rng := rand.New(rand.NewSource(11))
	g, err := gen.ClusterChain(300, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{Rng: rng, LogFactor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(snap, serve.ServerOptions{Executors: 2, Seed: 7})
	reg := obs.New()
	gw, err := gateway.New(srv, gateway.Options{QueueDepth: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	cfg := Config{
		Quick:          true,
		Seed:           7,
		DistSizes:      []int{300},
		ServeQueries:   8,
		ServeExecutors: []int{1, 2, 4},
		ServeBatches:   []int{1},
		ServeAddr:      ts.Listener.Addr().String(),
	}
	tbl, err := E14Serving(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wireRows := 0
	for _, row := range tbl.Rows {
		if row[3] == "wire" {
			wireRows++
			// n is the remote graph's, discovered by the probe.
			if row[0] != I(300) {
				t.Fatalf("wire row n = %v, want 300", row[0])
			}
		}
	}
	if wireRows != 3 {
		t.Fatalf("wire rows = %d, want one per client count", wireRows)
	}
	if hits := reg.Counter("lcs_gateway_sssp_cache_hits_total").Value(); hits != 0 {
		t.Fatalf("%d wire queries answered from the gateway's sssp cache, want 0", hits)
	}
	if _, ok := tbl.Meta["wire_ms_per_query"]; !ok {
		t.Fatal("meta missing wire_ms_per_query")
	}
	if _, ok := tbl.Meta["wire_overhead_ms"]; !ok {
		t.Fatal("meta missing wire_overhead_ms")
	}
	found := false
	for _, note := range tbl.Notes {
		if strings.Contains(note, "HTTP+JSON overhead") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing wire overhead note; notes: %q", tbl.Notes)
	}

	// A dead address fails loudly, not silently without wire rows.
	cfg.ServeAddr = "127.0.0.1:1"
	if _, err := E14Serving(cfg); err == nil {
		t.Fatal("dead serve-addr accepted")
	}
}

// TestPostWireQueryTypedErrors pins E14's wire client to the error
// taxonomy: a shed (429) reads KindBudgetExceeded, a gateway timeout (504)
// KindDeadline and an undecodable 200 KindCorrupt, so lcsbench -serve-addr
// can tell them apart.
func TestPostWireQueryTypedErrors(t *testing.T) {
	for _, c := range []struct {
		status int
		body   string
		want   reproerr.Kind
	}{
		{http.StatusTooManyRequests, `{"error":"gateway: queue full","kind":"budget exceeded"}`, reproerr.KindBudgetExceeded},
		{http.StatusGatewayTimeout, `{"error":"serve: context deadline exceeded","kind":"deadline exceeded"}`, reproerr.KindDeadline},
		{http.StatusOK, `{"kind":"sssp","sssp":{"source":0,"dist":[0,1.5`, reproerr.KindCorrupt},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(c.status)
			_, _ = w.Write([]byte(c.body + "\n"))
		}))
		_, err := postWireQuery(context.Background(), hs.Client(), hs.URL, 0)
		hs.Close()
		if k := reproerr.KindOf(err); k != c.want {
			t.Errorf("status %d: err %v of kind %v, want %v", c.status, err, k, c.want)
		}
	}
}
