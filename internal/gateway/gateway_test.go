package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/testx"
	"repro/internal/twoecss"
)

// fixture is the serve-test fixture shape: a dense-enough connected,
// 2-edge-connected graph with a Voronoi partition, so every query kind has
// an answer.
type fixture struct {
	g     *graph.Graph
	w     graph.Weights
	parts [][]graph.NodeID
	snap  *serve.Snapshot
}

func makeFixture(t testing.TB, n int, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, math.Max(0.01, 8/float64(n)), rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
			break
		}
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
	return &fixture{g: g, w: w, parts: parts, snap: snap}
}

func allEdges(g *graph.Graph) []graph.EdgeID {
	edges := make([]graph.EdgeID, g.NumEdges())
	for e := range edges {
		edges[e] = graph.EdgeID(e)
	}
	return edges
}

// gwEnv is one end-to-end serving stack: a store-backed gateway behind
// httptest listeners, plus a direct server on the same snapshot and seed —
// the oracle wire answers must match bit-for-bit.
type gwEnv struct {
	fx     *fixture
	store  *serve.Store
	gw     *Gateway
	direct *serve.Server
	srv    *httptest.Server
	admin  *httptest.Server
	reg    *obs.Registry
}

func newEnv(t testing.TB, fx *fixture, gwOpts Options) *gwEnv {
	t.Helper()
	reg := obs.New()
	if gwOpts.Metrics == nil {
		gwOpts.Metrics = reg
	} else {
		reg = gwOpts.Metrics
	}
	sOpts := serve.ServerOptions{Executors: 4, Seed: 7, Metrics: reg}
	store := serve.NewStore(fx.snap)
	gw, err := New(serve.NewStoreServer(store, sOpts), gwOpts)
	if err != nil {
		t.Fatal(err)
	}
	env := &gwEnv{
		fx:     fx,
		store:  store,
		gw:     gw,
		direct: serve.NewServer(fx.snap, serve.ServerOptions{Executors: 4, Seed: 7}),
		srv:    httptest.NewServer(gw.Handler()),
		admin:  httptest.NewServer(gw.AdminHandler()),
		reg:    reg,
	}
	t.Cleanup(func() {
		env.srv.Close()
		env.admin.Close()
		gw.Close()
	})
	return env
}

// post sends one JSON body and returns status plus the raw response body.
func post(t testing.TB, url string, body any, hdr map[string]string) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeResp[T any](t testing.TB, raw []byte) *T {
	t.Helper()
	out := new(T)
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("decoding response %s: %v", raw, err)
	}
	return out
}

func intp(v int64) *int64 { x := v; return &x }
func partp(v int) *int    { x := v; return &x }

// TestWireBitIdentity pins the gateway's core contract: for every query
// kind, the JSON round-trip over the wire yields exactly the answer a
// direct Server.ServeCtx call produces — float64s compared by bits.
func TestWireBitIdentity(t *testing.T) {
	fx := makeFixture(t, 300, 1)
	env := newEnv(t, fx, Options{})
	url := env.srv.URL + "/v1/query"

	t.Run("sssp", func(t *testing.T) {
		for _, src := range []int64{0, 7, int64(fx.g.NumNodes() - 1)} {
			status, raw := post(t, url, QueryRequest{Kind: "sssp", Source: intp(src)}, nil)
			if status != 200 {
				t.Fatalf("status %d: %s", status, raw)
			}
			got := decodeResp[QueryResponse](t, raw)
			want, err := env.direct.ServeSSSP(graph.NodeID(src))
			if err != nil {
				t.Fatal(err)
			}
			if got.SSSP == nil || got.SSSP.Source != src {
				t.Fatalf("bad sssp payload: %s", raw)
			}
			if len(got.SSSP.Dist) != len(want.Dist) {
				t.Fatalf("dist length %d, want %d", len(got.SSSP.Dist), len(want.Dist))
			}
			for i := range want.Dist {
				if math.Float64bits(got.SSSP.Dist[i]) != math.Float64bits(want.Dist[i]) {
					t.Fatalf("src %d: dist[%d] = %v, want %v (bit mismatch)", src, i, got.SSSP.Dist[i], want.Dist[i])
				}
			}
			if got.Rounds != want.Rounds || got.Messages != want.Messages {
				t.Fatalf("cost (%d,%d), want (%d,%d)", got.Rounds, got.Messages, want.Rounds, want.Messages)
			}
		}
	})

	t.Run("mst", func(t *testing.T) {
		status, raw := post(t, url, QueryRequest{Kind: "mst"}, nil)
		if status != 200 {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := decodeResp[QueryResponse](t, raw)
		a, err := env.direct.Serve(serve.MSTQuery{})
		if err != nil {
			t.Fatal(err)
		}
		want := a.(*serve.MSTAnswer)
		if got.MST == nil || math.Float64bits(got.MST.Weight) != math.Float64bits(want.Weight) {
			t.Fatalf("mst weight mismatch: %s", raw)
		}
		if len(got.MST.Edges) != len(want.Tree) {
			t.Fatalf("tree size %d, want %d", len(got.MST.Edges), len(want.Tree))
		}
		for i := range want.Tree {
			if got.MST.Edges[i] != want.Tree[i] {
				t.Fatalf("tree edge[%d] = %d, want %d", i, got.MST.Edges[i], want.Tree[i])
			}
		}
	})

	t.Run("mincut", func(t *testing.T) {
		status, raw := post(t, url, QueryRequest{Kind: "mincut", Eps: 0.5}, nil)
		if status != 200 {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := decodeResp[QueryResponse](t, raw)
		a, err := env.direct.Serve(serve.MinCutQuery{Eps: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		want := a.(*serve.MinCutAnswer)
		if got.MinCut == nil ||
			math.Float64bits(got.MinCut.Value) != math.Float64bits(want.Value) ||
			got.MinCut.Trees != want.Trees || len(got.MinCut.Side) != len(want.Side) {
			t.Fatalf("mincut mismatch: got %s, want %+v", raw, want)
		}
	})

	t.Run("twoecss", func(t *testing.T) {
		status, raw := post(t, url, QueryRequest{Kind: "twoecss"}, nil)
		if status != 200 {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := decodeResp[QueryResponse](t, raw)
		a, err := env.direct.Serve(serve.TwoECSSQuery{})
		if err != nil {
			t.Fatal(err)
		}
		want := a.(*serve.TwoECSSAnswer)
		if got.TwoECSS == nil ||
			math.Float64bits(got.TwoECSS.Weight) != math.Float64bits(want.Weight) ||
			math.Float64bits(got.TwoECSS.LowerBound) != math.Float64bits(want.LowerBound) ||
			math.Float64bits(got.TwoECSS.Ratio) != math.Float64bits(want.Ratio) ||
			len(got.TwoECSS.Edges) != len(want.Edges) {
			t.Fatalf("twoecss mismatch: got %s, want %+v", raw, want)
		}
	})

	t.Run("quality", func(t *testing.T) {
		status, raw := post(t, url, QueryRequest{Kind: "quality", Part: partp(3)}, nil)
		if status != 200 {
			t.Fatalf("status %d: %s", status, raw)
		}
		got := decodeResp[QueryResponse](t, raw)
		a, err := env.direct.Serve(serve.QualityQuery{Part: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := a.(*serve.QualityAnswer)
		if got.Quality == nil || got.Quality.Part != want.Part ||
			got.Quality.Congestion != want.Quality.Congestion ||
			got.Quality.DilationLo != want.Quality.DilationLo ||
			got.Quality.DilationHi != want.Quality.DilationHi ||
			got.Quality.Exact != want.Quality.Exact {
			t.Fatalf("quality mismatch: got %s, want %+v", raw, want)
		}
	})
}

// TestBatchEndpoint pins /v1/batch: the answer list is aligned with the
// query list and each answer matches its direct equivalent.
func TestBatchEndpoint(t *testing.T) {
	fx := makeFixture(t, 300, 2)
	env := newEnv(t, fx, Options{})

	req := BatchRequest{Queries: []QueryRequest{
		{Kind: "sssp", Source: intp(3)},
		{Kind: "mst"},
		{Kind: "sssp", Source: intp(3)}, // duplicate root — coalesced in-batch
		{Kind: "quality", Part: partp(1)},
	}}
	status, raw := post(t, env.srv.URL+"/v1/batch", req, nil)
	if status != 200 {
		t.Fatalf("status %d: %s", status, raw)
	}
	got := decodeResp[BatchResponse](t, raw)
	if len(got.Answers) != len(req.Queries) {
		t.Fatalf("%d answers, want %d", len(got.Answers), len(req.Queries))
	}
	want, err := env.direct.ServeSSSP(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 2} {
		a := got.Answers[idx]
		if a.Kind != "sssp" || a.SSSP == nil || len(a.SSSP.Dist) != len(want.Dist) {
			t.Fatalf("answers[%d] malformed: %+v", idx, a)
		}
		for i := range want.Dist {
			if math.Float64bits(a.SSSP.Dist[i]) != math.Float64bits(want.Dist[i]) {
				t.Fatalf("answers[%d].dist[%d] = %v, want %v", idx, i, a.SSSP.Dist[i], want.Dist[i])
			}
		}
	}
	if got.Answers[1].MST == nil || got.Answers[3].Quality == nil {
		t.Fatalf("kind-mismatched batch answers: %s", raw)
	}
}

// TestErrorMapping pins the HTTP error surface end to end: malformed and
// invalid requests map to the taxonomy's status codes with machine-readable
// kinds in the body.
func TestErrorMapping(t *testing.T) {
	fx := makeFixture(t, 200, 3)
	env := newEnv(t, fx, Options{})
	url := env.srv.URL + "/v1/query"

	cases := []struct {
		name   string
		body   string
		hdr    map[string]string
		status int
		kind   string
	}{
		{"malformed json", `{"kind": `, nil, 400, "invalid input"},
		{"unknown field", `{"kind":"mst","bogus":1}`, nil, 400, "invalid input"},
		{"unknown kind", `{"kind":"pagerank"}`, nil, 400, "invalid input"},
		{"sssp without source", `{"kind":"sssp"}`, nil, 400, "invalid input"},
		{"source out of range", `{"kind":"sssp","source":4294967296}`, nil, 400, "invalid input"},
		{"trailing data", `{"kind":"mst"} {"kind":"mst"}`, nil, 400, "invalid input"},
		{"trailing brace", `{"kind":"mst"}}`, nil, 400, "invalid input"},
		{"trailing bracket", `{"kind":"mst"}]`, nil, 400, "invalid input"},
		{"bad timeout header", `{"kind":"mst"}`, map[string]string{"Request-Timeout": "soon"}, 400, "invalid input"},
		{"expired deadline", `{"kind":"mst"}`, map[string]string{"Request-Timeout": "1ns"}, 504, "deadline exceeded"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", url, bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range c.hdr {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.status, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("error body is not ErrorResponse JSON: %s", raw)
			}
			if e.Kind != c.kind {
				t.Fatalf("kind %q, want %q", e.Kind, c.kind)
			}
		})
	}

	// GET on a POST-only route is the mux's 405, not a gateway error.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestDeltaEndpoint applies an insert-only delta over the wire and checks
// the swapped-in snapshot answers like a direct ApplyDelta: same MST
// weight, bumped epoch and generation, live-traffic continuity.
func TestDeltaEndpoint(t *testing.T) {
	fx := makeFixture(t, 250, 4)
	env := newEnv(t, fx, Options{})

	// Find two non-adjacent nodes for a fresh edge.
	var u, v graph.NodeID = -1, -1
findPair:
	for a := graph.NodeID(0); int(a) < fx.g.NumNodes(); a++ {
		for b := a + 1; int(b) < fx.g.NumNodes(); b++ {
			if !fx.g.HasEdge(a, b) {
				u, v = a, b
				break findPair
			}
		}
	}
	if u < 0 {
		t.Skip("complete graph — no insertable edge")
	}

	status, raw := post(t, env.srv.URL+"/v1/delta", DeltaRequest{
		Insert: []WireEdge{{U: int64(u), V: int64(v), W: 0.25}},
	}, nil)
	if status != 200 {
		t.Fatalf("delta status %d: %s", status, raw)
	}
	got := decodeResp[DeltaResponse](t, raw)
	if got.Inserted != 1 || got.Deleted != 0 {
		t.Fatalf("delta counts %+v, want 1 insert", got)
	}
	if got.Generation != fx.snap.Generation()+1 {
		t.Fatalf("generation %d, want %d", got.Generation, fx.snap.Generation()+1)
	}
	if got.Epoch != env.store.Epoch() {
		t.Fatalf("epoch %d, want store's %d", got.Epoch, env.store.Epoch())
	}

	// The oracle: the same delta applied directly to the original snapshot.
	want, err := serve.ApplyDelta(context.Background(), fx.snap, graph.Delta{
		Insert: []graph.DeltaEdge{{U: u, V: v, W: 0.25}},
	}, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := serve.NewServer(want, serve.ServerOptions{Seed: 7})
	wa, err := oracle.Serve(serve.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	status, raw = post(t, env.srv.URL+"/v1/query", QueryRequest{Kind: "mst"}, nil)
	if status != 200 {
		t.Fatalf("post-delta query status %d: %s", status, raw)
	}
	qr := decodeResp[QueryResponse](t, raw)
	if math.Float64bits(qr.MST.Weight) != math.Float64bits(wa.(*serve.MSTAnswer).Weight) {
		t.Fatalf("post-delta MST weight %v, want %v", qr.MST.Weight, wa.(*serve.MSTAnswer).Weight)
	}
}

// TestDeltaDisconnectingDeletion posts a deletion that disconnects a part:
// the gateway answers 400 with the invalid-input kind, the store stays on
// its epoch and snapshot generation, and the MST answer is unchanged.
func TestDeltaDisconnectingDeletion(t *testing.T) {
	fx := makeFixture(t, 250, 4)
	env := newEnv(t, fx, Options{})
	u, v, ok := testx.PartLeafEdge(fx.g, fx.snap.Partition().PartOf)
	if !ok {
		t.Fatal("fixture has no node with a single intra-part edge")
	}
	mst := func() []byte {
		status, raw := post(t, env.srv.URL+"/v1/query", QueryRequest{Kind: "mst"}, nil)
		if status != 200 {
			t.Fatalf("mst status %d: %s", status, raw)
		}
		return raw
	}
	before := mst()
	epoch, generation := env.store.Epoch(), env.store.Snapshot().Generation()

	status, raw := post(t, env.srv.URL+"/v1/delta", DeltaRequest{
		Delete: [][2]int64{{int64(u), int64(v)}},
	}, nil)
	if status != 400 {
		t.Fatalf("delta status %d, want 400 (%s)", status, raw)
	}
	if e := decodeResp[ErrorResponse](t, raw); e.Kind != reproerr.KindInvalidInput.String() {
		t.Fatalf("error kind %q, want %q", e.Kind, reproerr.KindInvalidInput)
	}
	if env.store.Epoch() != epoch || env.store.Snapshot().Generation() != generation {
		t.Fatalf("store at epoch %d generation %d, want %d and %d",
			env.store.Epoch(), env.store.Snapshot().Generation(), epoch, generation)
	}
	if after := mst(); !bytes.Equal(after, before) {
		t.Fatalf("mst after the rejected delta %s, want %s", after, before)
	}
}

// TestSwapEndpoint ships a persisted snapshot through /v1/snapshot/swap:
// a fresh-chain file swaps in (Drained true, epoch bumped), replaying the
// then-stale active state is rejected with 400, and a missing file is a
// non-200 without disturbing the active snapshot.
func TestSwapEndpoint(t *testing.T) {
	// Registered before newEnv, so the LIFO cleanup order runs it after the
	// env's listeners shut down — pinning that a swap leaves nothing behind.
	t.Cleanup(testx.LeakCheck(t.Fatalf))
	fx := makeFixture(t, 200, 5)
	other := makeFixture(t, 200, 6) // different seed → different build chain
	path := filepath.Join(t.TempDir(), "other.lcs")
	if err := serve.WriteSnapshotFile(path, other.snap); err != nil {
		t.Fatal(err)
	}

	env := newEnv(t, fx, Options{})
	epoch0 := env.store.Epoch()

	status, raw := post(t, env.srv.URL+"/v1/snapshot/swap", SwapRequest{Path: path}, nil)
	if status != 200 {
		t.Fatalf("swap status %d: %s", status, raw)
	}
	got := decodeResp[SwapResponse](t, raw)
	if !got.Drained || got.Epoch != epoch0+1 {
		t.Fatalf("swap response %+v, want drained at epoch %d", got, epoch0+1)
	}

	// Queries now answer from the shipped snapshot.
	oracle := serve.NewServer(other.snap, serve.ServerOptions{Seed: 7})
	wa, err := oracle.Serve(serve.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	status, raw = post(t, env.srv.URL+"/v1/query", QueryRequest{Kind: "mst"}, nil)
	if status != 200 {
		t.Fatalf("post-swap query status %d: %s", status, raw)
	}
	qr := decodeResp[QueryResponse](t, raw)
	if math.Float64bits(qr.MST.Weight) != math.Float64bits(wa.(*serve.MSTAnswer).Weight) {
		t.Fatalf("post-swap MST weight %v, want %v", qr.MST.Weight, wa.(*serve.MSTAnswer).Weight)
	}

	// Replaying the same file is now a same-chain, same-generation swap —
	// the store's stale-rollback protection turns it into a 400.
	status, raw = post(t, env.srv.URL+"/v1/snapshot/swap", SwapRequest{Path: path}, nil)
	if status != 400 {
		t.Fatalf("stale swap status %d, want 400: %s", status, raw)
	}
	if e := decodeResp[ErrorResponse](t, raw); e.Kind != reproerr.KindInvalidInput.String() {
		t.Fatalf("stale swap kind %q", e.Kind)
	}

	// A missing file must fail without touching the active epoch.
	epoch := env.store.Epoch()
	status, _ = post(t, env.srv.URL+"/v1/snapshot/swap", SwapRequest{Path: path + ".missing"}, nil)
	if status == 200 {
		t.Fatal("swap of missing file succeeded")
	}
	if env.store.Epoch() != epoch {
		t.Fatal("failed swap moved the epoch")
	}
}

// TestAdminEndpoints pins the admin mux: /healthz always serves, /readyz
// flips to 503 once the gateway drains, and /metrics carries both the
// gateway's and the serve layer's instrument families.
func TestAdminEndpoints(t *testing.T) {
	fx := makeFixture(t, 200, 7)
	env := newEnv(t, fx, Options{})

	// Generate some traffic so the counters are non-zero.
	for i := 0; i < 4; i++ {
		status, raw := post(t, env.srv.URL+"/v1/query", QueryRequest{Kind: "sssp", Source: intp(1)}, nil)
		if status != 200 {
			t.Fatalf("query status %d: %s", status, raw)
		}
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(env.admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if st, body := get("/healthz"); st != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", st, body)
	}
	if st, _ := get("/readyz"); st != 200 {
		t.Fatalf("readyz before drain: %d", st)
	}
	st, body := get("/metrics")
	if st != 200 {
		t.Fatalf("metrics: %d", st)
	}
	for _, want := range []string{
		"lcs_gateway_requests_total{endpoint=\"query\"} 4",
		"lcs_gateway_latency_ns",
		"lcs_gateway_queue_depth",
		"lcs_gateway_shed_total",
		"lcs_serve_latency_ns", // serve layer shares the registry
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}

	env.gw.Close()
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", st)
	}
}
