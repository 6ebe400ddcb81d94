package gateway

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/testx"
)

// TestStressQueriesWithDeltas hammers the gateway with concurrent queries
// of every kind while /v1/delta repeatedly mutates and swaps the active
// snapshot — the live-traffic contract: every query lands on a coherent
// epoch (200 with a well-formed answer), no request is lost, and shutdown
// leaks nothing. The sssp queries repeat four hot roots, so many are
// answered from the sssp cache: every sssp body must equal a fresh encode
// on a snapshot active at some point of its request's window. Run under
// -race in CI.
func TestStressQueriesWithDeltas(t *testing.T) {
	t.Cleanup(testx.LeakCheck(t.Fatalf))
	fx := makeFixture(t, 200, 13)
	env := newEnv(t, fx, Options{QueueDepth: 128})
	n := fx.g.NumNodes()

	// A fresh edge to churn: every delta inserts it, the next deletes it.
	var du, dv graph.NodeID = -1, -1
findPair:
	for a := graph.NodeID(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if !fx.g.HasEdge(a, b) {
				du, dv = a, b
				break findPair
			}
		}
	}
	if du < 0 {
		t.Fatal("no insertable edge")
	}

	const (
		queryWorkers = 4
		queriesEach  = 30
		deltas       = 6
	)
	// Every generation's snapshot, recorded by the delta goroutine once its
	// swap is in, and every sssp body with the generations active when its
	// request went out and when its response came back.
	type ssspBody struct {
		src    graph.NodeID
		lo, hi uint64
		body   []byte
	}
	var (
		mu     sync.Mutex
		snaps  = map[uint64]*serve.Snapshot{fx.snap.Generation(): fx.snap}
		bodies []ssspBody
	)
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				var req QueryRequest
				switch i % 3 {
				case 0:
					req = QueryRequest{Kind: "sssp", Source: intp(int64((w + i) % 4))}
				case 1:
					req = QueryRequest{Kind: "mst"}
				case 2:
					req = QueryRequest{Kind: "quality", Part: partp(i % 8)}
				}
				lo := env.store.Snapshot().Generation()
				status, raw := post(t, env.srv.URL+"/v1/query", req, nil)
				hi := env.store.Snapshot().Generation()
				if status != 200 {
					t.Errorf("worker %d query %d: status %d: %s", w, i, status, raw)
					return
				}
				got := decodeResp[QueryResponse](t, raw)
				if got.SSSP != nil && len(got.SSSP.Dist) != n {
					t.Errorf("worker %d query %d: dist length %d, want %d", w, i, len(got.SSSP.Dist), n)
					return
				}
				if got.SSSP != nil {
					mu.Lock()
					bodies = append(bodies, ssspBody{graph.NodeID(*req.Source), lo, hi, raw})
					mu.Unlock()
				}
				served.Add(1)
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < deltas; i++ {
			var req DeltaRequest
			if i%2 == 0 {
				req = DeltaRequest{Insert: []WireEdge{{U: int64(du), V: int64(dv), W: 0.25}}}
			} else {
				req = DeltaRequest{Delete: [][2]int64{{int64(du), int64(dv)}}}
			}
			status, raw := post(t, env.srv.URL+"/v1/delta", req, nil)
			if status != 200 {
				t.Errorf("delta %d: status %d: %s", i, status, raw)
				return
			}
			snap := env.store.Snapshot()
			mu.Lock()
			snaps[snap.Generation()] = snap
			mu.Unlock()
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if got := served.Load(); got != queryWorkers*queriesEach {
		t.Fatalf("served %d queries, want %d", got, queryWorkers*queriesEach)
	}
	// Every sssp body is a fresh encode on some generation of its window.
	fresh := map[[2]uint64][]byte{}
	for _, b := range bodies {
		ok := false
		for gen := b.lo; gen <= b.hi && !ok; gen++ {
			key := [2]uint64{gen, uint64(b.src)}
			if fresh[key] == nil {
				fresh[key] = freshBody(t, snaps[gen], b.src)
			}
			ok = bytes.Equal(b.body, fresh[key])
		}
		if !ok {
			t.Fatalf("source %d: body matches no generation in [%d, %d]", b.src, b.lo, b.hi)
		}
	}
	if hits := cacheHits(env.reg); hits == 0 {
		t.Fatal("no sssp request was a cache hit: the test shows nothing of the cache")
	}
	// All deltas landed: generation advanced once per delta.
	wantGen := fx.snap.Generation() + deltas
	if gen := env.store.Snapshot().Generation(); gen != wantGen {
		t.Fatalf("final generation %d, want %d", gen, wantGen)
	}
	// Post-churn sanity: a final query serves finite distances from the
	// settled snapshot.
	status, raw := post(t, env.srv.URL+"/v1/query", QueryRequest{Kind: "sssp", Source: intp(0)}, nil)
	if status != 200 {
		t.Fatalf("final query: %d %s", status, raw)
	}
	got := decodeResp[QueryResponse](t, raw)
	for i, d := range got.SSSP.Dist {
		if math.IsNaN(d) {
			t.Fatalf("final dist[%d] is NaN", i)
		}
	}
}
