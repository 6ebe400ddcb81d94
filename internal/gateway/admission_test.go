package gateway

import (
	"net/http"
	"testing"

	"repro/internal/testx"
)

// TestAdmissionShed pins the bounded-queue contract: with QueueDepth slots
// occupied the next request is shed immediately with 429 — it neither
// queues nor hangs — and once the slots are released the gateway serves
// again.
//
// The test fills the pool by taking the slots itself, the same admit/done
// pair every handler holds from admission to response, so "the gateway is
// full" is a state it enters exactly, not a race it hopes to win. Source
// 0's body is in the sssp cache by then: a cached root is shed too.
func TestAdmissionShed(t *testing.T) {
	t.Cleanup(testx.LeakCheck(t.Fatalf))
	fx := makeFixture(t, 200, 11)
	const depth = 2
	env := newEnv(t, fx, Options{QueueDepth: depth})
	g := env.gw

	for i := 0; i < 3; i++ {
		askSSSP(t, g.Handler(), 0)
	}
	if hits := cacheHits(env.reg); hits != 1 {
		t.Fatalf("%d cache hits after three requests for one root, want 1", hits)
	}

	for i := 0; i < depth; i++ {
		if err := g.admit(); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}

	// The pool is full: every further request — sssp or not — sheds with
	// 429. Run several to pin that shedding neither consumes slots nor
	// blocks.
	for i, req := range []QueryRequest{
		{Kind: "sssp", Source: intp(0)},
		{Kind: "mst"},
		{Kind: "sssp", Source: intp(1)},
	} {
		if status, raw := post(t, env.srv.URL+"/v1/query", req, nil); status != http.StatusTooManyRequests {
			t.Fatalf("request %d (%s): status %d, want 429: %s", i, req.Kind, status, raw)
		}
	}
	if sheds := env.reg.Counter("lcs_gateway_shed_total").Value(); sheds != 3 {
		t.Fatalf("shed counter %d, want 3", sheds)
	}
	if hits := cacheHits(env.reg); hits != 1 {
		t.Fatalf("cache hits %d while full, want 1", hits)
	}
	if d := env.reg.Gauge("lcs_gateway_queue_depth").Value(); d != depth {
		t.Fatalf("queue depth %d, want %d", d, depth)
	}

	for i := 0; i < depth; i++ {
		g.done()
	}
	if status, raw := post(t, env.srv.URL+"/v1/query",
		QueryRequest{Kind: "sssp", Source: intp(0)}, nil); status != http.StatusOK {
		t.Fatalf("query after release: status %d: %s", status, raw)
	}
	if peak := env.reg.Gauge("lcs_gateway_queue_depth_peak").Value(); peak != depth {
		t.Fatalf("peak depth %d, want %d", peak, depth)
	}
}
