package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// ssspResponses are sssp answers as the handler maps them: with and
// without cost, a null and an empty row, the values the row codec treats
// specially, and integers at the ends of their fields.
func ssspResponses() []*QueryResponse {
	inf := math.Inf(1)
	return []*QueryResponse{
		{Kind: "sssp", SSSP: &SSSPResult{Source: 3, Dist: DistVector{
			0, 0.1 + 0.2, inf, 1e21, 5e-324, math.MaxFloat64, math.Copysign(0, -1), 123456789e-30,
		}}, Rounds: 12, Messages: 34567},
		{Kind: "sssp", SSSP: &SSSPResult{Source: 0, Dist: DistVector{inf}}, Rounds: 1},
		{Kind: "sssp", SSSP: &SSSPResult{Source: 1, Dist: DistVector{2, inf}}, Messages: 5},
		{Kind: "sssp", SSSP: &SSSPResult{Source: 7}},
		{Kind: "sssp", SSSP: &SSSPResult{Source: 2, Dist: DistVector{}}},
		{Kind: "sssp", SSSP: &SSSPResult{Source: math.MaxInt64, Dist: DistVector{1}},
			Rounds: math.MaxInt, Messages: math.MaxInt64},
		{Kind: "sssp", SSSP: &SSSPResult{Source: math.MinInt64, Dist: DistVector{1}},
			Rounds: math.MinInt, Messages: math.MinInt64},
	}
}

// sameResponse reports whether got equals want as reflect.DeepEqual sees
// it and, for an sssp answer, bit for bit in the row: DeepEqual compares
// floats with ==, which does not tell 0 from -0.
func sameResponse(got, want *QueryResponse) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	if want.SSSP != nil {
		for i, d := range want.SSSP.Dist {
			if math.Float64bits(got.SSSP.Dist[i]) != math.Float64bits(d) {
				return false
			}
		}
	}
	return true
}

// checkDecode holds DecodeQueryResponse(raw) to json.Unmarshal of raw into
// a fresh QueryResponse: the same accept/reject decision, KindCorrupt on
// reject and the same response on accept. It returns the decoded response,
// nil on reject.
func checkDecode(t *testing.T, raw []byte) *QueryResponse {
	t.Helper()
	want := new(QueryResponse)
	werr := json.Unmarshal(raw, want)
	got, err := DecodeQueryResponse(raw)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: err %v; json.Unmarshal err %v", raw, err, werr)
	}
	if err != nil {
		if reproerr.KindOf(err) != reproerr.KindCorrupt {
			t.Fatalf("%q: err %v of kind %v, want %v", raw, err, reproerr.KindOf(err), reproerr.KindCorrupt)
		}
		return nil
	}
	if !sameResponse(got, want) {
		t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", raw, got, want)
	}
	return got
}

// FuzzDecodeQueryResponse differentially fuzzes DecodeQueryResponse
// against its definition, json.Unmarshal into a fresh QueryResponse
// (checkDecode). The seeds are the handler's bodies for all five kinds and
// near misses of the one-pass sssp form.
func FuzzDecodeQueryResponse(f *testing.F) {
	bodies := ssspResponses()
	bodies = append(bodies,
		&QueryResponse{Kind: "mst", MST: &MSTResult{Edges: []graph.EdgeID{4, 0, 9}, Weight: 2.5}},
		&QueryResponse{Kind: "mincut", MinCut: &MinCutResult{Value: 1e-7, Side: []graph.NodeID{1, 2}, Trees: 8}, Rounds: 5},
		&QueryResponse{Kind: "twoecss", TwoECSS: &TwoECSSResult{Weight: 3, LowerBound: 2.25, Ratio: 4.0 / 3}, Messages: 1},
		&QueryResponse{Kind: "quality", Quality: &QualityResult{Part: 2, Congestion: 5, DilationLo: 3, DilationHi: 6, Exact: true}},
	)
	for _, r := range bodies {
		raw, err := appendBody(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	const base = `{"kind":"sssp","sssp":{"source":3,"dist":[0,1.5,null,5e-324]},"rounds":2,"messages":9}`
	for _, s := range []string{
		base + "\n", base + "\n\t \r",
		// Spaces in the envelope.
		` {"kind":"sssp","sssp":{"source":3,"dist":[0]}}`,
		`{"kind": "sssp","sssp":{"source":3,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist": [0]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0] },"rounds":2}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]} ,"rounds":2}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"rounds": 2}`,
		// Reordered and repeated keys, other spellings of the kind.
		`{"sssp":{"source":3,"dist":[0]},"kind":"sssp"}`,
		`{"kind":"sssp","sssp":{"dist":[0],"source":3}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"messages":9,"rounds":2}`,
		`{"kind":"sssp","kind":"mst","sssp":{"source":3,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"sssp":{"source":4,"dist":null}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"rounds":2,"rounds":3}`,
		`{"KIND":"sssp","sssp":{"source":3,"dist":[0]}}`,
		`{"kind":"SSSP","sssp":{"source":3,"dist":[0]}}`,
		`{"kind":"ss\u0073p","sssp":{"source":3,"dist":[0]}}`,
		// Integers that are not JSON integers or do not fit.
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"rounds":1.5}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"rounds":1e3}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"messages":-1.5}`,
		`{"kind":"sssp","sssp":{"source":3.0,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":9223372036854775808,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":-9223372036854775809,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"rounds":9223372036854775808}`,
		`{"kind":"sssp","sssp":{"source":03,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":+3,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":-,"dist":[0]}}`,
		`{"kind":"sssp","sssp":{"source":-0,"dist":[0]},"rounds":-0}`,
		// Rows parseRow refuses, or that end early.
		`{"kind":"sssp","sssp":{"source":3,"dist":[1e999]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0,1.5`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0,1.5]`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[[0]]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":["0"]}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":nul}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":{}}}`,
		// Bytes where the envelope wants a brace, and trailing bytes.
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]]}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0],}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":null]}`,
		base + "x", base + "}", base + "\n{}",
		// Other bodies.
		`{"kind":"sssp","sssp":null}`, `{"kind":"sssp"}`, `not json`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, raw)
	})
}

// TestDecodeQueryResponseOnePass pins that the one-pass path is taken:
// every sssp body the handler writes, a served row's included, decodes in
// decodeSSSP itself to what json.Unmarshal returns. FuzzDecodeQueryResponse
// alone would pass a one-pass path that always defers.
func TestDecodeQueryResponseOnePass(t *testing.T) {
	fx := makeFixture(t, 120, 3)
	a, err := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1}).ServeSSSP(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(ssspResponses(), answerToResponse(a)) {
		raw, err := appendBody(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeSSSP(raw)
		if !ok {
			t.Fatalf("%q: the one-pass path deferred", raw)
		}
		if want := checkDecode(t, raw); !sameResponse(got, want) || !sameResponse(got, r) {
			t.Fatalf("%q: one-pass %+v, json.Unmarshal %+v, served %+v", raw, got, want, r)
		}
	}
	for _, raw := range []string{
		`{"kind":"mst","mst":{"edges":[0],"weight":1}}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]},"rounds":1.5}`,
		`{"kind":"sssp","sssp":{"source":3,"dist":[0]}}x`,
	} {
		if _, ok := decodeSSSP([]byte(raw)); ok {
			t.Fatalf("%q: the one-pass path accepted a body outside its form", raw)
		}
	}
}

// TestReadQueryResponseBodies pins the client's body read: an answer with a
// Content-Length is read at that length and keeps its connection alive, a
// chunked 200 still decodes, a body shorter than its Content-Length is an
// error, and a declared length above maxBodyBytes is read through
// io.ReadAll, never preallocated.
func TestReadQueryResponseBodies(t *testing.T) {
	want := ssspResponses()[0]
	raw, err := appendBody(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int32
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/length":
			w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
			_, _ = w.Write(raw)
		case "/chunked":
			_, _ = w.Write(raw[:10])
			w.(http.Flusher).Flush()
			_, _ = w.Write(raw[10:])
		case "/short":
			w.Header().Set("Content-Length", strconv.Itoa(len(raw)+10))
			_, _ = w.Write(raw)
		}
	}))
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	get := func(path string) (*QueryResponse, int64, error) {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReadQueryResponse("gateway.test", resp)
		return r, resp.ContentLength, err
	}
	for i := 0; i < 3; i++ {
		if r, n, err := get("/length"); err != nil || n != int64(len(raw)) || !sameResponse(r, want) {
			t.Fatalf("length-framed answer: %+v, Content-Length %d, err %v", r, n, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("three length-framed answers took %d connections, want 1 kept alive", n)
	}
	if r, n, err := get("/chunked"); err != nil || n != -1 || !sameResponse(r, want) {
		t.Errorf("chunked answer: %+v, Content-Length %d, err %v", r, n, err)
	}
	if _, _, err := get("/short"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body short of its Content-Length: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
	got, err := readBody(&http.Response{ContentLength: maxBodyBytes + 1, Body: io.NopCloser(bytes.NewReader(raw))})
	if err != nil || !bytes.Equal(got, raw) || cap(got) >= maxBodyBytes {
		t.Errorf("declared length above the bound: %d bytes, cap %d, err %v; want %d bytes read by io.ReadAll", len(got), cap(got), err, len(raw))
	}
}
