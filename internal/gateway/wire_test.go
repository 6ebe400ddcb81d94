package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// TestDistVectorRoundTrip pins the Inf↔null wire encoding: +Inf
// (sssp.Infinite, unreachable) marshals as null and comes back as +Inf,
// and every finite float64 survives the round trip bit-exactly — into a
// fresh receiver and into a reused one, whose backing array the parser
// keeps.
func TestDistVectorRoundTrip(t *testing.T) {
	in := DistVector{
		0, 1.5, math.Inf(1), 0.1 + 0.2, // 0.30000000000000004 — needs full precision
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, math.Copysign(0, -1),
		1e21, 123456789e-30, // exponent forms
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	same := func(out DistVector) {
		t.Helper()
		if len(out) != len(in) {
			t.Fatalf("length %d, want %d", len(out), len(in))
		}
		for i := range in {
			if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
				t.Fatalf("[%d] %v → %s → %v: bits differ", i, in[i], raw, out[i])
			}
		}
	}
	var out DistVector
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	same(out)
	reused := make(DistVector, 3, 64)
	for i := range reused {
		reused[i] = -7 // stale values the decode must overwrite
	}
	if err := reused.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	same(reused)
	if cap(reused) != 64 {
		t.Fatalf("reused receiver reallocated: cap %d", cap(reused))
	}

	// NaN and -Inf have no wire representation — marshaling must fail
	// loudly rather than emit invalid JSON.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := json.Marshal(DistVector{bad}); err == nil {
			t.Fatalf("marshal of %v succeeded", bad)
		}
	}

	// A nil vector is JSON null both ways; an empty one is [] both ways,
	// whatever whitespace surrounds it.
	raw, err = json.Marshal(DistVector(nil))
	if err != nil || string(raw) != "null" {
		t.Fatalf("nil vector → %s, %v", raw, err)
	}
	out = DistVector{1, 2}
	if err := out.UnmarshalJSON([]byte(" null\n")); err != nil || out != nil {
		t.Fatalf("null → %v, %v; want nil", out, err)
	}
	raw, err = json.Marshal(DistVector{})
	if err != nil || string(raw) != "[]" {
		t.Fatalf("empty vector → %s, %v", raw, err)
	}
	var empty DistVector
	if err := empty.UnmarshalJSON([]byte("\t[ ] ")); err != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("[] → %#v, %v; want an empty non-nil vector", empty, err)
	}
}

// TestAppendResponseMatchesEncoder pins the hand-written appender to
// encoding/json: for every kind, and for a batch, the gateway's body bytes
// equal json.NewEncoder(&buf).Encode of the same value, trailing newline
// included.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	inf := math.Inf(1)
	bodies := map[string]any{
		"sssp": &QueryResponse{Kind: "sssp",
			SSSP:   &SSSPResult{Source: 3, Dist: DistVector{0, 0.1 + 0.2, inf, 1e21, 5e-324, inf}},
			Rounds: 12, Messages: 34567},
		"sssp-zero-cost": &QueryResponse{Kind: "sssp", SSSP: &SSSPResult{Dist: DistVector{inf, 2}}},
		"sssp-nil-row":   &QueryResponse{Kind: "sssp", SSSP: &SSSPResult{Source: 1}},
		"mst": &QueryResponse{Kind: "mst",
			MST: &MSTResult{Edges: []graph.EdgeID{4, 0, 9}, Weight: 2.5}},
		"mincut": &QueryResponse{Kind: "mincut",
			MinCut: &MinCutResult{Value: 1e-7, Side: []graph.NodeID{1, 2}, Trees: 8}, Rounds: 5},
		"twoecss": &QueryResponse{Kind: "twoecss",
			TwoECSS: &TwoECSSResult{Weight: 3, LowerBound: 2.25, Ratio: 4.0 / 3}, Messages: 1},
		"quality": &QueryResponse{Kind: "quality",
			Quality: &QualityResult{Part: 2, Congestion: 5, DilationLo: 3, DilationHi: 6}},
		"escaped-kind": &QueryResponse{Kind: "<\"é\">"},
		"nil":          (*QueryResponse)(nil),
		"batch": &BatchResponse{Answers: []*QueryResponse{
			{Kind: "sssp", SSSP: &SSSPResult{Source: 0, Dist: DistVector{inf, 0}}, Rounds: 1, Messages: 2},
			{Kind: "mst", MST: &MSTResult{}},
			nil,
		}},
		"batch-empty": &BatchResponse{Answers: []*QueryResponse{}},
		"batch-nil":   &BatchResponse{},
		"delta":       &DeltaResponse{Epoch: 2, Generation: 3, RepairMs: 1.25},
	}
	for name, body := range bodies {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(body); err != nil {
			t.Fatalf("%s: encoding/json: %v", name, err)
		}
		got, err := appendBody(nil, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want.Bytes())
		}
	}
}

// TestWriteJSONEncodeFailure pins encode-before-header: a body the codec
// rejects (a NaN or -Inf distance) is a 500 carrying a decodable
// ErrorResponse, never a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	g := &Gateway{m: newGwMetrics(nil)}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		g.writeJSON(rec, epQuery, &QueryResponse{Kind: "sssp",
			SSSP: &SSSPResult{Dist: DistVector{0, bad}}})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%v: status %d, want 500: %s", bad, rec.Code, rec.Body.Bytes())
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "unknown" || e.Error == "" {
			t.Fatalf("%v: body %q (%v), want an ErrorResponse of kind unknown", bad, rec.Body.Bytes(), err)
		}
	}

	// A success carries its exact Content-Length.
	rec := httptest.NewRecorder()
	g.writeJSON(rec, epQuery, &QueryResponse{Kind: "sssp", SSSP: &SSSPResult{Dist: DistVector{0, math.Inf(1)}}})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("status %d, Content-Length %q for a %d-byte body", rec.Code,
			rec.Header().Get("Content-Length"), rec.Body.Len())
	}
}

// TestQueryValidation pins toQuery's rejection surface: every malformed
// request is a typed KindInvalidInput, never a panic or a silent default.
func TestQueryValidation(t *testing.T) {
	src := func(v int64) *int64 { return &v }
	part := func(v int) *int { return &v }
	bad := []QueryRequest{
		{},                              // missing kind
		{Kind: "pagerank"},              // unknown kind
		{Kind: "sssp"},                  // missing source
		{Kind: "sssp", Source: src(-1)}, // negative source
		{Kind: "sssp", Source: src(math.MaxInt32 + 1)},
		{Kind: "mincut", Eps: -1},
		{Kind: "mincut", Eps: math.Inf(1)},
		{Kind: "mincut", Eps: math.NaN()},
		{Kind: "mincut", Eps: 1e-9}, // below the 1/eps cost floor
		{Kind: "quality"},           // missing part
	}
	for i, q := range bad {
		if _, err := q.toQuery(); err == nil {
			t.Errorf("bad[%d] %+v: accepted", i, q)
		}
	}
	good := []QueryRequest{
		{Kind: "sssp", Source: src(0)},
		{Kind: "mst"},
		{Kind: "mincut"},
		{Kind: "mincut", Eps: 0.5},
		{Kind: "twoecss"},
		{Kind: "quality", Part: part(0)},
	}
	for i, q := range good {
		if _, err := q.toQuery(); err != nil {
			t.Errorf("good[%d] %+v: rejected: %v", i, q, err)
		}
	}
}

// TestResponseToAnswerRoundTrip pins the wire mapping in both directions:
// each kind's served answer, mapped to its QueryResponse, encoded as the
// handler encodes it, decoded as a client decodes it and mapped back by
// ResponseToAnswer, equals the original, the sssp row bit for bit with +Inf
// and -0 included.
func TestResponseToAnswerRoundTrip(t *testing.T) {
	fx := makeFixture(t, 120, 3)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1, Seed: 7})
	for _, q := range []serve.Query{
		serve.SSSPQuery{Source: 5}, serve.MSTQuery{}, serve.MinCutQuery{},
		serve.TwoECSSQuery{}, serve.QualityQuery{Part: 2},
	} {
		a, err := srv.Serve(q)
		if err != nil {
			t.Fatal(err)
		}
		sssp, isSSSP := a.(*serve.SSSPAnswer)
		if isSSSP {
			// The fixture is connected; plant the values the codec treats
			// specially.
			sssp.Dist[0], sssp.Dist[1] = math.Inf(1), math.Copysign(0, -1)
		}
		raw, err := appendResponse(nil, answerToResponse(a))
		if err != nil {
			t.Fatal(err)
		}
		var resp QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%T: decoding %s: %v", a, raw, err)
		}
		back, err := ResponseToAnswer(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, a) {
			t.Fatalf("%T: %+v came back as %+v", a, a, back)
		}
		if isSSSP {
			for i, d := range back.(*serve.SSSPAnswer).Dist {
				if math.Float64bits(d) != math.Float64bits(sssp.Dist[i]) {
					t.Fatalf("dist[%d] = %v came back as %v: bits differ", i, sssp.Dist[i], d)
				}
			}
		}
	}
	if _, err := ResponseToAnswer(&QueryResponse{Kind: "mst", SSSP: &SSSPResult{}}); reproerr.KindOf(err) != reproerr.KindCorrupt {
		t.Fatalf("mst response without its result: err %v, want KindCorrupt", err)
	}
}
