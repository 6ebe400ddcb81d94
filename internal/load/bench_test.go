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
// read and decode of the ~37 KB answer. Sources rotate, so no two
// consecutive queries share a root.
func BenchmarkWireBackendSSSP(b *testing.B) {
	snap := makeSnapshot(b, 2000, 31)
	n := snap.Graph().NumNodes()
	backend := wireBackend(b, serve.NewServer(snap, serve.ServerOptions{Executors: 1}))
	ctx := context.Background()
	do := func(src int) {
		c, err := backend.Do(ctx, serve.SSSPQuery{Source: graph.NodeID(src)})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Dist) != n {
			b.Fatalf("row of %d distances, want %d", len(c.Dist), n)
		}
	}
	do(0) // open the keep-alive connection and warm the executor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(i * 31 % n)
	}
}
