package repro_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestGatewayFacade drives the facade end to end: NewGateway over a
// store-backed v2 server, one wire query, the taxonomy status helpers, and
// the shared-registry metrics surface.
func TestGatewayFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, err := repro.ClusterChain(300, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := repro.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := repro.NewSnapshotCtx(context.Background(), g, repro.UniformWeights(g, rng), parts,
		repro.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	reg := repro.NewMetrics()
	store, err := repro.NewStoreV2(snap, repro.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repro.NewStoreServerV2(store, repro.WithMetrics(reg), repro.WithServerSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := repro.NewGateway(srv,
		repro.WithQueueDepth(16),
		repro.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sssp","source":0}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}

	admin := httptest.NewServer(gw.AdminHandler())
	defer admin.Close()
	mresp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"lcs_gateway_requests_total", "lcs_serve_latency_ns"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// The taxonomy's wire mapping, via the facade.
	if got := repro.HTTPStatus(repro.KindBudgetExceeded); got != 429 {
		t.Fatalf("HTTPStatus(KindBudgetExceeded) = %d", got)
	}
	if got := repro.HTTPStatusOf(nil); got != 200 {
		t.Fatalf("HTTPStatusOf(nil) = %d", got)
	}

	// Invalid options surface as KindInvalidInput at construction.
	if _, err := repro.NewGateway(srv, repro.WithQueueDepth(-1)); repro.ErrorKindOf(err) != repro.KindInvalidInput {
		t.Fatalf("negative queue depth: %v", err)
	}
	if _, err := repro.NewGateway(nil); err == nil {
		t.Fatal("nil server accepted")
	}
}
