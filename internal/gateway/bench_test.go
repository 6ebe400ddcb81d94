package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// BenchmarkGatewaySSSPWarmCore is the gateway's below-HTTP hot path with a
// live instrument set: admission (slot acquire, depth gauge, peak CAS),
// executor checkout, the preallocated-row warm sssp serve, and the slot
// release. CI's benchmark smoke asserts this stays at 0 allocs/op — the
// gateway layer must add control, not garbage; the JSON codec above it is
// the wire format's price, measured separately below.
func BenchmarkGatewaySSSPWarmCore(b *testing.B) {
	fx := makeFixture(b, 2_000, 31)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1, Metrics: reg})
	gw, err := New(srv, Options{QueueDepth: 4, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	ctx := context.Background()
	dst := make([]float64, fx.g.NumNodes())
	core := func(src graph.NodeID) {
		if err := gw.admit(); err != nil {
			b.Fatal(err)
		}
		dst, err = srv.ServeSSSPIntoCtx(ctx, dst, src)
		gw.done()
		if err != nil {
			b.Fatal(err)
		}
	}
	core(0) // warm the executor
	// Collect fixture and warm-up garbage before the timed window: at
	// -benchtime=1x a background GC landing inside it reads as spurious
	// allocs/op in the zero-alloc gate.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core(graph.NodeID(i % fx.g.NumNodes()))
	}
}

// BenchmarkGatewaySSSPCachedCore is the same hot path for a root whose
// body is in the sssp cache: admission, the cache lookup (the epoch and
// snapshot reads and the locked map read), the hit count and the slot
// release, with a live instrument set on a store-backed server. CI's
// benchmark smoke asserts 0 allocs/op.
func BenchmarkGatewaySSSPCachedCore(b *testing.B) {
	fx := makeFixture(b, 2_000, 31)
	reg := obs.New()
	srv := serve.NewStoreServer(serve.NewStore(fx.snap), serve.ServerOptions{Executors: 1, Metrics: reg})
	gw, err := New(srv, Options{QueueDepth: 4, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	const hot = 16
	h := gw.Handler()
	for i := 0; i < 2*hot; i++ { // the second miss keeps each body
		askSSSP(b, h, graph.NodeID(i%hot))
	}
	core := func(src graph.NodeID) {
		if err := gw.admit(); err != nil {
			b.Fatal(err)
		}
		body, _ := gw.cache.lookup(src)
		if body == nil {
			b.Fatalf("source %d missed", src)
		}
		gw.m.cacheHits.Inc()
		gw.done()
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core(graph.NodeID(i % hot))
	}
}

// BenchmarkGatewayQueryHTTP measures the full wire path — mux, JSON
// decode, serve, JSON encode — for the wire-overhead comparison against
// the core above. Sources rotate, so every request misses the sssp cache.
// Not part of the zero-alloc gate: the request decode, the answer row
// ServeCtx returns, and httptest's request and recorder allocate; the
// response encode itself is gated below.
func BenchmarkGatewayQueryHTTP(b *testing.B) {
	fx := makeFixture(b, 2_000, 31)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	gw, err := New(srv, Options{QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	h := gw.Handler()
	n := fx.g.NumNodes()
	bodies := make([][]byte, n)
	for src := range bodies {
		bodies[src] = []byte(fmt.Sprintf(`{"kind":"sssp","source":%d}`, src))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(bodies[i*31%n]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// ssspResponse serves one real n=2000 sssp row as its wire response.
func ssspResponse(b *testing.B) *QueryResponse {
	fx := makeFixture(b, 2_000, 31)
	a, err := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1}).ServeSSSP(0)
	if err != nil {
		b.Fatal(err)
	}
	return answerToResponse(a)
}

// BenchmarkEncodeSSSPResponse encodes an n=2000 sssp response into a warm
// pooled buffer — the handler's encode step without the ResponseWriter.
// CI's benchmark smoke asserts 0 allocs/op.
func BenchmarkEncodeSSSPResponse(b *testing.B) {
	resp := ssspResponse(b)
	// Collect the fixture's garbage, then warm the pool: a collection
	// empties sync.Pool's per-P caches, so the warm-up must come after it.
	runtime.GC()
	var err error
	bp := getBody()
	if *bp, err = appendBody(*bp, resp); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(*bp)))
	putBody(bp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := getBody()
		if *bp, err = appendBody(*bp, resp); err != nil {
			b.Fatal(err)
		}
		putBody(bp)
	}
}

// BenchmarkDecodeDistVector parses an n=2000 sssp row into a reused
// receiver. CI's benchmark smoke asserts 0 allocs/op: the parser writes
// into the receiver's capacity.
func BenchmarkDecodeDistVector(b *testing.B) {
	raw, err := appendRow(nil, ssspResponse(b).SSSP.Dist)
	if err != nil {
		b.Fatal(err)
	}
	var row DistVector
	if err := row.UnmarshalJSON(raw); err != nil { // size the receiver
		b.Fatal(err)
	}
	runtime.GC()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := row.UnmarshalJSON(raw); err != nil {
			b.Fatal(err)
		}
	}
}
