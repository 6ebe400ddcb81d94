package load

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve"
)

// BenchmarkWireBackendSSSP times one sssp query through WireBackend.Do
// against a gateway on a loopback httptest server at n=2000: the request
// encode, HTTP on loopback, the handler's walk and encode, and the client's
// read and decode of the ~37 KB answer. Sources rotate, so only the first
// timed query repeats a root (the warm-up's, as its second miss), and every
// timed query misses the gateway's sssp cache.
func BenchmarkWireBackendSSSP(b *testing.B) {
	n, do := wireSSSP(b)
	do(0) // open the keep-alive connection and warm the executor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(i * 31 % n)
	}
}

// BenchmarkWireBackendSSSPHot is BenchmarkWireBackendSSSP over 16 hot
// roots: each is asked three times before the timer starts, and the timed
// queries cycle through them, so every one repeats a root already asked.
func BenchmarkWireBackendSSSPHot(b *testing.B) {
	const hot = 16
	n, do := wireSSSP(b)
	root := func(i int) int { return i % hot * 97 % n }
	for i := 0; i < 3*hot; i++ {
		do(root(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(root(i))
	}
}

// wireSSSP starts a gateway on a loopback httptest server over an n=2000
// snapshot and returns n and a function that asks it one sssp query
// through WireBackend.Do, failing b on an error or a short row.
func wireSSSP(b *testing.B) (int, func(src int)) {
	snap := makeSnapshot(b, 2000, 31)
	n := snap.Graph().NumNodes()
	backend := wireBackend(b, serve.NewServer(snap, serve.ServerOptions{Executors: 1}))
	ctx := context.Background()
	return n, func(src int) {
		c, err := backend.Do(ctx, serve.SSSPQuery{Source: graph.NodeID(src)})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Dist) != n {
			b.Fatalf("row of %d distances, want %d", len(c.Dist), n)
		}
	}
}
