package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// freshBody is the oracle a cached body is held to: appendBody of a fresh
// ServeCtx answer for src on snap, from a server with the gateway env's
// seed.
func freshBody(t testing.TB, snap *serve.Snapshot, src graph.NodeID) []byte {
	t.Helper()
	a, err := serve.NewServer(snap, serve.ServerOptions{Executors: 1, Seed: 7}).
		ServeCtx(context.Background(), serve.SSSPQuery{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendBody(nil, answerToResponse(a))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// askSSSP sends one /v1/query sssp request for src straight to h and
// returns the recorded response, failing t on anything but a 200 whose
// headers match its body.
func askSSSP(t testing.TB, h http.Handler, src graph.NodeID) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"kind":"sssp","source":%d}`, src)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader([]byte(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("source %d: status %d: %s", src, rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("source %d: Content-Type %q", src, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("source %d: Content-Length %q for a %d-byte body", src, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

func cacheHits(reg *obs.Registry) int64 {
	return reg.Counter("lcs_gateway_sssp_cache_hits_total").Value()
}

func cacheBytes(reg *obs.Registry) int64 {
	return reg.Gauge("lcs_gateway_sssp_cache_bytes").Value()
}

// TestSSSPCacheSameBytes asks every root of a small fixture three times:
// the first request walks, the second walks and keeps the body, the third
// is a hit. All three bodies equal appendBody of a fresh ServeCtx answer,
// and the hits counter moves on the third request only.
func TestSSSPCacheSameBytes(t *testing.T) {
	fx := makeFixture(t, 60, 41)
	env := newEnv(t, fx, Options{})
	h := env.gw.Handler()
	kept := int64(0)
	for src := graph.NodeID(0); int(src) < fx.g.NumNodes(); src++ {
		want := freshBody(t, fx.snap, src)
		for ask := 1; ask <= 3; ask++ {
			hits := cacheHits(env.reg)
			got := askSSSP(t, h, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("source %d, request %d: body differs from a fresh encode\n got %q\nwant %q", src, ask, got, want)
			}
			wantMoved := int64(0)
			if ask == 3 {
				wantMoved = 1
			}
			if moved := cacheHits(env.reg) - hits; moved != wantMoved {
				t.Fatalf("source %d, request %d: hits counter moved by %d, want %d", src, ask, moved, wantMoved)
			}
			if ask == 2 {
				kept += int64(len(want))
			}
			if b := cacheBytes(env.reg); b != kept {
				t.Fatalf("source %d, request %d: bytes gauge %d, want %d", src, ask, b, kept)
			}
		}
	}
}

// TestSSSPCacheSwaps holds a cached root to the new snapshot after each
// way the active snapshot can change: a /v1/delta, a /v1/snapshot/swap,
// and a library Store.Swap the gateway never sees. The next body equals a
// fresh encode on the new snapshot, differs from the cached one, and is
// not a hit.
func TestSSSPCacheSwaps(t *testing.T) {
	fx := makeFixture(t, 200, 5)
	other := makeFixture(t, 200, 6)
	path := filepath.Join(t.TempDir(), "other.lcs")
	if err := serve.WriteSnapshotFile(path, other.snap); err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, fx, Options{})
	h := env.gw.Handler()
	const src = 0

	// A fresh edge from src with a weight below every other: it joins the
	// tree, so src's row changes.
	var v graph.NodeID = -1
	for b := graph.NodeID(1); int(b) < fx.g.NumNodes(); b++ {
		if !fx.g.HasEdge(src, b) {
			v = b
			break
		}
	}
	if v < 0 {
		t.Fatal("no insertable edge at the source")
	}

	for _, sw := range []struct {
		name string
		do   func(t *testing.T)
	}{
		{"delta", func(t *testing.T) {
			status, raw := post(t, env.srv.URL+"/v1/delta", DeltaRequest{
				Insert: []WireEdge{{U: src, V: int64(v), W: 1e-9}},
			}, nil)
			if status != 200 {
				t.Fatalf("delta status %d: %s", status, raw)
			}
		}},
		{"snapshot-swap", func(t *testing.T) {
			status, raw := post(t, env.srv.URL+"/v1/snapshot/swap", SwapRequest{Path: path}, nil)
			if status != 200 {
				t.Fatalf("swap status %d: %s", status, raw)
			}
		}},
		{"store-swap", func(t *testing.T) {
			env.store.Swap(fx.snap)
		}},
	} {
		t.Run(sw.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				askSSSP(t, h, src)
			}
			cached := askSSSP(t, h, src)
			hits := cacheHits(env.reg)
			sw.do(t)
			want := freshBody(t, env.store.Snapshot(), src)
			if bytes.Equal(want, cached) {
				t.Fatal("the swap left the source's row unchanged: the test shows nothing")
			}
			if got := askSSSP(t, h, src); !bytes.Equal(got, want) {
				t.Fatalf("after the swap: body differs from the new snapshot's fresh encode\n got %q\nwant %q", got, want)
			}
			if moved := cacheHits(env.reg) - hits; moved != 0 {
				t.Fatalf("after the swap: hits counter moved by %d", moved)
			}
		})
	}
}

// TestSSSPCacheEpochRule swaps the store away and back between a second
// miss's lookup and its keep: the snapshot is the cached one again, but
// the walk could have run on the other, so nothing is kept.
func TestSSSPCacheEpochRule(t *testing.T) {
	fx := makeFixture(t, 60, 43)
	other := makeFixture(t, 60, 44)
	env := newEnv(t, fx, Options{})
	c := &env.gw.cache
	const src = 3
	body := freshBody(t, fx.snap, src)

	c.lookup(src)
	_, miss := c.lookup(src)
	if !miss.second {
		t.Fatal("second lookup is not a second miss")
	}
	env.store.Swap(other.snap)
	env.store.Swap(fx.snap)
	c.keep(src, miss, body)
	if got, _ := c.lookup(src); got != nil {
		t.Fatal("a body was kept across a swap")
	}
	if b := cacheBytes(env.reg); b != 0 {
		t.Fatalf("bytes gauge %d after a refused keep", b)
	}

	// With no swap in between, the same keep goes through.
	_, miss = c.lookup(src)
	if !miss.second {
		t.Fatal("lookup after the refused keep is not a second miss")
	}
	c.keep(src, miss, body)
	if got, _ := c.lookup(src); !bytes.Equal(got, body) {
		t.Fatal("the body was not kept without a swap")
	}
}

// TestSSSPCacheBudget asks 240 roots of an n=2000 fixture three times
// each. Second misses are kept in order while they fit the 4 MiB budget,
// so the kept count lies between ⌊budget / largest body⌋ and ⌊budget /
// smallest body⌋, the bytes gauge never passes the budget, and roots past
// it are still served a fresh encode.
func TestSSSPCacheBudget(t *testing.T) {
	fx := makeFixture(t, 2_000, 31)
	env := newEnv(t, fx, Options{})
	h := env.gw.Handler()
	const roots = 240
	want := make([][]byte, roots)
	lo, hi := int64(1)<<62, int64(0)
	wantKept, wantBytes := 0, int64(0)
	for r := range want {
		want[r] = freshBody(t, fx.snap, graph.NodeID(r))
		size := int64(len(want[r]))
		lo, hi = min(lo, size), max(hi, size)
		if wantBytes+size <= ssspCacheBudget {
			wantKept++
			wantBytes += size
		}
	}
	if wantKept == roots {
		t.Fatalf("%d bodies of %d-%d bytes fit the budget: the test shows nothing", roots, lo, hi)
	}

	for round := 1; round <= 3; round++ {
		hits := cacheHits(env.reg)
		for r := range want {
			if got := askSSSP(t, h, graph.NodeID(r)); !bytes.Equal(got, want[r]) {
				t.Fatalf("round %d, source %d: body differs from a fresh encode", round, r)
			}
			if b := cacheBytes(env.reg); b > ssspCacheBudget {
				t.Fatalf("round %d, source %d: bytes gauge %d over the budget", round, r, b)
			}
		}
		if round == 3 {
			if got := int(cacheHits(env.reg) - hits); got != wantKept {
				t.Fatalf("%d hits in the third round, want the %d bodies that fit", got, wantKept)
			}
		}
	}
	if b := cacheBytes(env.reg); b != wantBytes {
		t.Fatalf("bytes gauge %d, want %d", b, wantBytes)
	}
	if wantKept < ssspCacheBudget/int(hi) || wantKept > ssspCacheBudget/int(lo) {
		t.Fatalf("kept %d bodies of %d-%d bytes", wantKept, lo, hi)
	}
}
